import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bsar.cli
import bsar.core
import bsar.focus
from bsar import fileio
from bsar.cli import main
from bsar.core import RCMC_BLOCK_ROWS, ChirpModel, sample_chirp
from bsar.errors import FormatError, ParameterError, SampleError
from bsar.decompose import leading_triplets
from bsar.estimate import blind_estimate
from bsar.focus import focus_pipeline
from bsar.quality import analyze_point_target, compare_images
from bsar.simulate import simulate_raw
from conftest import DEFAULT_CONFIG
from oracles import pgm_levels

REPO = Path(__file__).resolve().parents[1]


def run_python(args, cwd=None):
    """Run the interpreter on `args` with the package source on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(path):
    """Parse as RFC 8259 JSON: bare NaN and Infinity are errors."""
    return json.loads(Path(path).read_text(), parse_constant=reject_constant)


def single_error_line(capsys, kind):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"bsar: {kind}: "), err
    return err[0]


# --- BSAR binary format ----------------------------------------------------------

def test_matrix_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((7, 13)) + 1j * rng.standard_normal((7, 13))
    path = tmp_path / "m.bsar"
    fileio.write_matrix(x, path, flags=fileio.FLAG_FOCUSED)
    back, flags = fileio.read_matrix(path)
    assert flags == fileio.FLAG_FOCUSED
    # lossless at 32-bit float precision
    np.testing.assert_array_equal(back.real, x.real.astype(np.float32))
    np.testing.assert_array_equal(back.imag, x.imag.astype(np.float32))
    # a second write of the reread matrix is byte-identical
    again = tmp_path / "m2.bsar"
    fileio.write_matrix(back, again, flags=fileio.FLAG_FOCUSED)
    assert path.read_bytes() == again.read_bytes()


def test_read_matrix_returns_writable_complex64(tmp_path):
    path = tmp_path / "m.bsar"
    fileio.write_matrix(np.full((3, 5), 1.5 - 2.0j), path)
    back, _ = fileio.read_matrix(path)
    assert back.dtype == np.complex64 and back.flags.writeable
    back[0, 0] = 0.0
    np.testing.assert_array_equal(back[1:], np.full((2, 5), 1.5 - 2.0j, np.complex64))


def test_file_size_formula(tmp_path):
    path = tmp_path / "z.bsar"
    fileio.write_matrix(np.zeros((512, 1024), dtype=np.complex128), path)
    assert path.stat().st_size == 32 + 512 * 1024 * 8


def test_matrix_written_in_row_blocks_is_one_cast(tmp_path):
    # 130 rows: two whole blocks and a ragged one
    x = np.random.default_rng(6).standard_normal((130, 7)) * (1 + 1j)
    fileio.write_matrix(x, tmp_path / "m.bsar")
    payload = (tmp_path / "m.bsar").read_bytes()[fileio.HEADER.size:]
    assert payload == x.astype("<c8").tobytes()


def test_write_matrix_peak_memory():
    # rows are cast block by block, never the whole image at once
    x = np.ones((1024, 1024), dtype=np.complex128)
    tracemalloc.start()
    try:
        fileio.write_matrix(x, os.devnull)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= x.nbytes / 8, peak / x.nbytes


def test_complex64_rows_are_written_without_a_cast_copy():
    # simulate_raw's raw is C-contiguous complex64: its rows go to the file as they are
    x = np.ones((1024, 1024), dtype=np.complex64)
    tracemalloc.start()
    try:
        fileio.write_matrix(x, os.devnull)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < RCMC_BLOCK_ROWS * x.shape[1] * x.itemsize / 8, peak


@pytest.mark.parametrize("layout", ["transposed", "column-strided", "row-padded"])
def test_matrix_written_row_major_whatever_the_layout(tmp_path, layout):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((9, 14)) + 1j * rng.standard_normal((9, 14))
    view = {"transposed": x.T, "column-strided": x[:, ::3],
            # focus_pipeline's image: the first N columns of pass 1's wider complex64 map
            "row-padded": np.pad(x.astype(np.complex64), ((0, 0), (0, 10)))[:, :14]}[layout]
    fileio.write_matrix(view, tmp_path / "view.bsar")
    fileio.write_matrix(np.ascontiguousarray(view), tmp_path / "copy.bsar")
    data = (tmp_path / "view.bsar").read_bytes()
    assert data == (tmp_path / "copy.bsar").read_bytes()
    assert len(data) == 32 + 8 * view.size
    back, _ = fileio.read_matrix(tmp_path / "view.bsar")
    np.testing.assert_array_equal(back, view.astype(np.complex64))


def test_bad_magic_offset(tmp_path):
    path = tmp_path / "bad.bsar"
    fileio.write_matrix(np.ones((2, 2), dtype=np.complex128), path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XSAR"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match=r"^bad magic b'XSAR' at byte 0$"):
        fileio.read_matrix(path)


def test_bad_version_offset(tmp_path):
    path = tmp_path / "bad.bsar"
    fileio.write_matrix(np.ones((2, 2), dtype=np.complex128), path)
    data = bytearray(path.read_bytes())
    data[4] = 9
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match=r"^unsupported version 9 at byte 4$"):
        fileio.read_matrix(path)


def test_truncated_payload_offset(tmp_path):
    path = tmp_path / "trunc.bsar"
    fileio.write_matrix(np.ones((4, 4), dtype=np.complex128), path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError, match=r"^truncated payload at byte 152: 4x4 needs 160 bytes$"):
        fileio.read_matrix(path)


def test_file_that_shrinks_after_opening_names_the_byte(tmp_path):
    path = tmp_path / "shrink.bsar"
    fileio.write_matrix(np.ones((4, 4), dtype=np.complex128), path)
    with fileio.MatrixReader(path) as reader:
        os.truncate(path, 32 + 2 * 4 * 8 + 8)
        with pytest.raises(FormatError, match=r"truncated payload at byte 104, in row 2$"):
            reader.read(slice(2, 4))


def test_trailing_bytes_rejected(tmp_path, capsys):
    path = tmp_path / "long.bsar"
    fileio.write_matrix(np.ones((4, 4), dtype=np.complex128), path)
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(FormatError, match=r"^trailing bytes at byte 160: 4x4 needs 160 bytes$"):
        fileio.read_matrix(path)
    assert main(["render", "--in", str(path), "--out", str(tmp_path / "r.pgm")]) == 3
    assert single_error_line(capsys, "format").endswith(" at byte 160: 4x4 needs 160 bytes")


# --- the row-block reader -------------------------------------------------------

def damaged_file(path, shape, bad_samples):
    """A BSAR file of random samples with NaN at each (row, column) given."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for row, col in bad_samples:
        x[row, col] = np.nan
    fileio.write_matrix(x, path)
    return x.astype(np.complex64)


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_reader_names_the_first_of_two_non_finite_samples(monkeypatch, tmp_path, workers):
    # the second NaN's block is scanned at once, the first's only after a
    # delay, so with several workers the second is found first in time
    path = tmp_path / "two.bsar"
    damaged_file(path, (130, 16), [(100, 3), (40, 9)])
    monkeypatch.setattr(bsar.core, "block_workers", lambda: workers)
    with fileio.MatrixReader(path) as reader:

        def slow_read(rows):
            if rows.start <= 40 < rows.stop:
                threading.Event().wait(0.05)
            return reader.read(rows)

        with pytest.raises(SampleError, match=r"non-finite sample at row 40, column 9$"):
            bsar.core.run_blocks(slow_read, 130)
    with pytest.raises(SampleError, match=r"at row 40, column 9$"):
        fileio.read_matrix(path)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("command", ["estimate", "focus", "analyze", "compare",
                                     "compare-window", "render"])
def test_cli_names_the_first_of_two_non_finite_samples(monkeypatch, tmp_path, capsys,
                                                       default_sim, default_estimate,
                                                       command, workers):
    # raw data for estimate and focus, a focused image for the others; the
    # window's rows (224-288) hold neither damaged row, and every row is scanned
    raw, _ = default_sim
    damaged = raw.copy()
    damaged[[450, 300], [5, 17]] = np.nan
    bad_f, good_f, est_f = tmp_path / "bad.bsar", tmp_path / "good.bsar", tmp_path / "est.json"
    flags = 0 if command in ("estimate", "focus") else fileio.FLAG_FOCUSED
    fileio.write_matrix(damaged, bad_f, flags=flags)
    fileio.write_matrix(raw, good_f, flags=flags)
    fileio.write_estimate(default_estimate, est_f)
    monkeypatch.setattr(bsar.core, "block_workers", lambda: workers)
    compare = ["compare", "--a", good_f, "--b", bad_f]
    argv = {"estimate": ["estimate", "--in", bad_f],
            "focus": ["focus", "--in", bad_f, "--est", est_f],
            "analyze": ["analyze", "--in", bad_f, "--row", "256", "--col", "480"],
            "compare": compare, "compare-window": [*compare, "--window", "224:288,448:512"],
            "render": ["render", "--in", bad_f]}[command]
    capsys.readouterr()
    assert main([str(arg) for arg in [*argv, "--out", tmp_path / "out"]]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"bsar: parameter: {bad_f}: non-finite sample at row 300, column 17"]
    assert not (tmp_path / "out").exists()


def truncate_or_extend(path, fault):
    data = path.read_bytes()
    path.write_bytes(data[:-8] if fault == "truncated" else data + bytes(8))


@pytest.mark.parametrize("fault", ["truncated", "trailing"])
def test_malformed_file_is_refused_before_any_pass(monkeypatch, tmp_path, capsys, default_sim,
                                                   default_estimate, fault):
    raw, _ = default_sim
    raw_f, est_f, out_f = tmp_path / "raw.bsar", tmp_path / "est.json", tmp_path / "out"
    fileio.write_matrix(raw, raw_f)
    fileio.write_estimate(default_estimate, est_f)
    truncate_or_extend(raw_f, fault)
    with pytest.raises(FormatError, match=fault):
        fileio.MatrixReader(raw_f)
    passes = []
    monkeypatch.setattr(bsar.focus, "range_compress", lambda *args: passes.append(args))
    monkeypatch.setattr(bsar.cli, "leading_triplets", lambda *args, **kw: passes.append(args))
    for argv in (["focus", "--est", str(est_f)],
                 ["estimate"], ["analyze", "--row", "256", "--col", "480"]):
        capsys.readouterr()
        assert main([*argv, "--in", str(raw_f), "--out", str(out_f)]) == 3
        single_error_line(capsys, "format")
    assert passes == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["est.json", "raw.bsar"]


def test_read_fills_the_file_precision_and_rows(tmp_path):
    path = tmp_path / "m.bsar"
    x = damaged_file(path, (130, 16), [])
    whole, _ = fileio.read_matrix(path)
    assert whole.dtype == np.complex64
    np.testing.assert_array_equal(whole, x)
    # analyze keeps its window's rows only; the others stay zero
    kept, _ = fileio.read_matrix(path, keep=(-10, 40))
    np.testing.assert_array_equal(kept[:40], x[:40])
    assert not kept[40:].any()


# --- PGM rendering ----------------------------------------------------------------

def test_render_single_pixel(tmp_path):
    img = np.zeros((4, 6), dtype=np.complex128)
    img[1, 2] = 5.0
    path = tmp_path / "r.pgm"
    fileio.render_magnitude(img, path)
    data = path.read_bytes()
    header = b"P5\n6 4\n255\n"
    assert data.startswith(header)
    pixels = np.frombuffer(data[len(header):], dtype=np.uint8).reshape(4, 6)
    assert pixels[1, 2] == 255
    assert np.sum(pixels) == 255


def test_render_constant_magnitude(tmp_path):
    img = np.exp(1j * np.linspace(0, 3, 24)).reshape(4, 6)
    path = tmp_path / "c.pgm"
    fileio.render_magnitude(img, path)
    header = b"P5\n6 4\n255\n"
    pixels = np.frombuffer(path.read_bytes()[len(header):], dtype=np.uint8)
    assert np.all(pixels == 255)


def test_render_header_for_512x1024(tmp_path):
    path = tmp_path / "big.pgm"
    with pytest.warns(UserWarning):
        fileio.render_magnitude(np.zeros((512, 1024), dtype=np.complex128), path)
    assert path.read_bytes().startswith(b"P5\n1024 512\n255\n")


def complex64_image(shape=(512, 1024)):
    rng = np.random.default_rng(9)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex64)


def test_render_complex64_levels_match_the_upcast(tmp_path):
    img = complex64_image((64, 96))
    img[5:9] = 0.0  # -inf dB, clipped to the floor
    path = tmp_path / "r.pgm"
    fileio.render_magnitude(img, path)
    pixels = np.frombuffer(path.read_bytes()[len(b"P5\n96 64\n255\n"):], dtype=np.uint8)
    np.testing.assert_array_equal(pixels.reshape(img.shape), pgm_levels(img, -40.0))


def test_render_peak_memory():
    # one float64 magnitude, scaled in place, and the uint8 pixels
    img = complex64_image()
    tracemalloc.start()
    try:
        fileio.render_magnitude(img, os.devnull)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * img.nbytes, peak / img.nbytes


def test_render_of_a_reader_reads_row_blocks_to_the_same_bytes(tmp_path):
    # two passes of RCMC_BLOCK_ROWS rows over the file, the last block
    # ragged, write the matrix's PGM byte for byte; the heap holds a block's
    # magnitude, not the image's
    img = complex64_image((8 * RCMC_BLOCK_ROWS + 5, 1024))
    img[7] = 0.0
    img_f = tmp_path / "img.bsar"
    fileio.write_matrix(img, img_f, flags=fileio.FLAG_FOCUSED)
    fileio.render_magnitude(img, tmp_path / "matrix.pgm")
    with fileio.MatrixReader(img_f) as reader:
        tracemalloc.start()
        try:
            fileio.render_magnitude(reader, tmp_path / "reader.pgm")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    data = (tmp_path / "reader.pgm").read_bytes()
    assert data == (tmp_path / "matrix.pgm").read_bytes()
    header = f"P5\n1024 {img.shape[0]}\n255\n".encode("ascii")
    pixels = np.frombuffer(data[len(header):], dtype=np.uint8).reshape(img.shape)
    np.testing.assert_array_equal(pixels, pgm_levels(img, -40.0))
    assert peak <= 0.5 * img.nbytes, peak / img.nbytes


def test_nonzero_reserved_header_byte_is_refused(tmp_path, capsys):
    # the reserved bytes are zero, so that a header re-packed from the flags
    # and shape is the file's own
    path = tmp_path / "m.bsar"
    fileio.write_matrix(np.ones((4, 4), np.complex64), path)
    data = bytearray(path.read_bytes())
    data[fileio.HEADER.size - 1] = 1
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match=r"^nonzero reserved header bytes at byte 16$"):
        fileio.MatrixReader(path)
    assert main(["render", "--in", str(path), "--out", str(tmp_path / "m.pgm")]) == 3
    assert single_error_line(capsys, "format").endswith(" at byte 16")
    assert not (tmp_path / "m.pgm").exists()


# --- JSON sidecars -----------------------------------------------------------------

def test_estimate_roundtrip(tmp_path, default_estimate):
    path = tmp_path / "est.json"
    fileio.write_estimate(default_estimate, path, input_hash="abc123")
    back = fileio.read_estimate(path)
    assert strict_json(path)["input_sha256"] == "abc123"
    assert back.range_chirp == default_estimate.range_chirp
    assert back.azimuth_chirp == default_estimate.azimuth_chirp
    assert back.doppler_centroid == default_estimate.doppler_centroid
    assert back.beam_center_row == default_estimate.beam_center_row


def test_truth_roundtrip(tmp_path, default_sim):
    _, truth = default_sim
    path = tmp_path / "truth.json"
    fileio.write_json(truth, path)
    back = fileio.read_truth(path)
    assert back.positions == [tuple(p) for p in truth.positions]
    assert back.range_chirp_rate == truth.range_chirp_rate
    np.testing.assert_array_equal(back.rcm_curve, truth.rcm_curve)
    assert back.config == truth.config


def test_malformed_json_is_format_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        fileio.read_estimate(path)
    path.write_text('{"unexpected": 1}')
    with pytest.raises(FormatError):
        fileio.read_estimate(path)


def test_empty_scene_truth_is_strict_json(tmp_path):
    # no scatterer: the beam centre row is NaN
    config = json.loads(DEFAULT_CONFIG.read_text())["config"]
    config.update(num_pulses=64, samples_per_pulse=160, beam_azimuth_extent=0.2)
    cfg_f = tmp_path / "empty.json"
    cfg_f.write_text(json.dumps({"config": config, "scene": []}))
    truth_f = tmp_path / "truth.json"
    assert main(["simulate", "--config", str(cfg_f), "--out", str(tmp_path / "raw.bsar"),
                 "--truth", str(truth_f)]) == 0
    assert strict_json(truth_f)["beam_center_row"] == "nan"
    assert math.isnan(fileio.read_truth(truth_f).beam_center_row)


def separable_chirp_matrix():
    """A beam-weighted azimuth chirp times a range chirp, both on a 1/256 grid
    so every product is exact in float32: the file holds a rank-one matrix."""
    rows = np.arange(128)
    beam = np.sinc((rows - 64.0) / 40.0) ** 2
    azimuth = beam * sample_chirp(ChirpModel(rate=-2e-3, center=64.0, support=(0, 128)), rows)
    pulse = sample_chirp(ChirpModel(rate=4e-3, center=60.0, support=(30, 91)), np.arange(160))
    grid = 256.0
    return np.outer(np.round(azimuth * grid) / grid, np.round(pulse * grid) / grid)


def test_infinite_dominance_ratio_is_strict_json(tmp_path):
    raw_f, est_f, spec_f = tmp_path / "raw.bsar", tmp_path / "est.json", tmp_path / "s.csv"
    fileio.write_matrix(separable_chirp_matrix(), raw_f)
    assert main(["estimate", "--in", str(raw_f), "--out", str(est_f),
                 "--spectrum", str(spec_f)]) == 0
    assert strict_json(est_f)["dominance_ratio"] == "inf"
    est = fileio.read_estimate(est_f)
    assert est.dominance_ratio == math.inf
    assert spec_f.read_text().strip().splitlines()[-1] == "dominance_ratio,inf"


# --- CLI -----------------------------------------------------------------------

def test_cli_end_to_end(tmp_path, default_sim):
    raw_f = tmp_path / "raw.bsar"
    truth_f = tmp_path / "truth.json"
    est_f = tmp_path / "est.json"
    spec_f = tmp_path / "spectrum.csv"
    blind_f = tmp_path / "blind.bsar"
    oracle_f = tmp_path / "oracle.bsar"
    report_f = tmp_path / "report.csv"
    report_j = tmp_path / "report.json"
    cmp_f = tmp_path / "cmp.json"
    pgm_f = tmp_path / "img.pgm"

    assert main(["simulate", "--config", str(DEFAULT_CONFIG),
                 "--out", str(raw_f), "--truth", str(truth_f)]) == 0
    assert main(["estimate", "--in", str(raw_f), "--out", str(est_f),
                 "--spectrum", str(spec_f)]) == 0
    assert main(["focus", "--in", str(raw_f), "--est", str(est_f),
                 "--out", str(blind_f)]) == 0
    assert main(["focus", "--in", str(raw_f), "--oracle", str(truth_f),
                 "--out", str(oracle_f)]) == 0

    _, truth = default_sim
    row0, col0 = truth.positions[0]
    assert main(["analyze", "--in", str(blind_f), "--row", str(row0),
                 "--col", str(col0), "--out", str(report_f),
                 "--json", str(report_j)]) == 0
    report = json.loads(report_j.read_text())
    assert abs(report["peak_position"][0] - row0) <= 1.0
    assert abs(report["peak_position"][1] - col0) <= 1.0
    assert report["pslr_range"] <= -12.5
    assert report["irw_range"] == pytest.approx(0.886 / truth.bandwidth_fraction,
                                                rel=0.15)

    r, c = int(round(row0)), int(round(col0))
    assert main(["compare", "--a", str(blind_f), "--b", str(oracle_f),
                 "--out", str(cmp_f),
                 "--window", f"{r - 32}:{r + 32},{c - 32}:{c + 32}"]) == 0
    summary = json.loads(cmp_f.read_text())
    assert summary["correlation"] >= 0.98

    assert main(["render", "--in", str(blind_f), "--out", str(pgm_f)]) == 0
    assert pgm_f.read_bytes().startswith(b"P5\n1024 512\n255\n")

    # the spectrum CSV records a dominance ratio above the gate
    lines = spec_f.read_text().strip().splitlines()
    assert lines[0] == "index,singular_value"
    assert float(lines[-1].split(",")[1]) >= 3.0


@pytest.mark.parametrize("scene, pslr_azimuth", [("default", -23.5), ("squint", -27.0)],
                         ids=["desk_default", "desk_squint"])
def test_cli_default_blind_image_matches_the_oracle(tmp_path, request, scene, pslr_azimuth):
    # estimate and focus with the CLI's defaults: the blind references are
    # untapered, one design with the oracle's
    raw, truth = request.getfixturevalue(f"{scene}_sim")
    raw_f, truth_f, est_f = tmp_path / "raw.bsar", tmp_path / "truth.json", tmp_path / "est.json"
    blind_f, oracle_f = tmp_path / "blind.bsar", tmp_path / "oracle.bsar"
    fileio.write_matrix(raw, raw_f)
    fileio.write_json(truth, truth_f)
    assert main(["estimate", "--in", str(raw_f), "--out", str(est_f)]) == 0
    assert main(["focus", "--in", str(raw_f), "--est", str(est_f), "--out", str(blind_f)]) == 0
    assert main(["focus", "--in", str(raw_f), "--oracle", str(truth_f),
                 "--out", str(oracle_f)]) == 0

    row0, col0 = truth.positions[0]
    r, c = int(round(row0)), int(round(col0))
    cmp_f, report_j = tmp_path / "cmp.json", tmp_path / "report.json"
    assert main(["compare", "--a", str(blind_f), "--b", str(oracle_f), "--out", str(cmp_f),
                 "--window", f"{r - 32}:{r + 32},{c - 32}:{c + 32}"]) == 0
    assert main(["analyze", "--in", str(blind_f), "--row", str(row0), "--col", str(col0),
                 "--out", str(tmp_path / "report.csv"), "--json", str(report_j)]) == 0
    assert json.loads(cmp_f.read_text())["correlation"] >= 0.993
    assert json.loads(report_j.read_text())["pslr_azimuth"] <= pslr_azimuth


@pytest.mark.parametrize("scene", ["default", "squint"], ids=["desk_default", "desk_squint"])
def test_cli_estimate_of_the_payload_matches_its_complex128_upcast(tmp_path, request, scene):
    # bsar estimate decomposes the complex64 payload as it is.  Over 18
    # noise realizations of the two desk scenes, its estimate and that of
    # the payload's exact complex128 upcast differed by at most 4.4e-9 in
    # the rates (relative), 9.2e-8 samples in the chirp and beam centres and
    # 3.6e-8 in sigma1/sigma2 (relative), with the same supports; each
    # bound is about five times that.  The centroid sums the same float64
    # products in the same order, so it is equal.
    raw, _ = request.getfixturevalue(f"{scene}_sim")
    raw_f, est_f = tmp_path / "raw.bsar", tmp_path / "est.json"
    fileio.write_matrix(raw, raw_f)
    assert main(["estimate", "--in", str(raw_f), "--out", str(est_f)]) == 0
    single = fileio.read_estimate(est_f)
    double = blind_estimate(raw.astype(np.complex128))
    for name in ("range_chirp", "azimuth_chirp"):
        a, b = getattr(single, name), getattr(double, name)
        assert a.support == b.support
        assert a.rate == pytest.approx(b.rate, rel=2e-8)
        assert a.center == pytest.approx(b.center, abs=5e-7)
    assert single.doppler_centroid == double.doppler_centroid
    assert single.beam_center_row == pytest.approx(double.beam_center_row, abs=5e-7)
    assert single.dominance_ratio == pytest.approx(double.dominance_ratio, rel=2e-7)


def test_cli_estimate_records_what_made_it(tmp_path, default_sim):
    # the gate, the product count and the precision the decomposition ran
    # in; read back, the extra keys are ignored and the image is the same
    raw = default_sim[0]
    raw_f, est_f = tmp_path / "raw.bsar", tmp_path / "est.json"
    fileio.write_matrix(raw, raw_f)
    assert main(["estimate", "--in", str(raw_f), "--out", str(est_f)]) == 0
    svd = leading_triplets(raw, k=2, gate=3.0)
    assert strict_json(est_f)["decomposition"] == {
        "gate": 3.0, "products": svd.products, "precision": "complex64"}
    written = blind_estimate(raw)
    assert fileio.read_estimate(est_f) == written
    np.testing.assert_array_equal(focus_pipeline(raw, fileio.read_estimate(est_f)).image,
                                  focus_pipeline(raw, written).image)


def test_cli_noise_only_exits_4(tmp_path):
    config = json.loads(DEFAULT_CONFIG.read_text())["config"]
    config.update(num_pulses=256, samples_per_pulse=256,
                  beam_azimuth_extent=1.0, noise_sigma=1.0)
    cfg_f = tmp_path / "noise.json"
    cfg_f.write_text(json.dumps({"config": config, "scene": []}))
    raw_f = tmp_path / "noise.bsar"
    assert main(["simulate", "--config", str(cfg_f), "--out", str(raw_f)]) == 0
    assert main(["estimate", "--in", str(raw_f),
                 "--out", str(tmp_path / "est.json")]) == 4


def test_cli_clutter_refusal_writes_no_file(tmp_path, capsys, clutter_sim):
    # refused on a proven bound after a few products; those Ritz values are no
    # spectrum, so neither the estimate nor the spectrum CSV is written
    raw_f, est_f, spec_f = tmp_path / "raw.bsar", tmp_path / "est.json", tmp_path / "s.csv"
    fileio.write_matrix(clutter_sim, raw_f)
    assert main(["estimate", "--in", str(raw_f), "--out", str(est_f),
                 "--spectrum", str(spec_f)]) == 4
    single_error_line(capsys, "unsuitable-scene")
    assert not est_f.exists() and not spec_f.exists()


def test_cli_estimate_refuses_a_beam_centre_off_the_pulse_grid(tmp_path, capsys):
    # a 1e-300 m wavelength leaves no azimuth chirp to fit: the fitted beam
    # centre falls off the grid, which focus would refuse, so estimate refuses
    # it and writes neither the estimate nor the spectrum CSV
    doc = json.loads(DEFAULT_CONFIG.read_text())
    doc["config"]["wavelength"] = 1e-300
    cfg_f, raw_f = tmp_path / "config.json", tmp_path / "raw.bsar"
    est_f, spec_f = tmp_path / "est.json", tmp_path / "s.csv"
    cfg_f.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg_f), "--out", str(raw_f)]) == 0
    capsys.readouterr()
    assert main(["estimate", "--in", str(raw_f), "--out", str(est_f),
                 "--spectrum", str(spec_f)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("bsar: parameter: beam center row "), err
    assert err[0].endswith(" outside the 512-pulse grid"), err
    assert not est_f.exists() and not spec_f.exists()


def focus_with_missing_file_exits_2(tmp_path, capsys, option):
    """`bsar focus OPTION missing.json` exits 2 with one parameter line."""
    raw_f, missing = tmp_path / "raw.bsar", tmp_path / "missing.json"
    fileio.write_matrix(np.ones((4, 4), dtype=np.complex128), raw_f)
    assert main(["focus", "--in", str(raw_f), option, str(missing),
                 "--out", str(tmp_path / "out.bsar")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"bsar: parameter: file not found: {missing}"]
    assert not (tmp_path / "out.bsar").exists()


def test_cli_missing_estimate_exits_2(tmp_path, capsys):
    focus_with_missing_file_exits_2(tmp_path, capsys, "--est")


def test_cli_missing_oracle_exits_2(tmp_path, capsys):
    focus_with_missing_file_exits_2(tmp_path, capsys, "--oracle")


def test_cli_estimate_without_beam_center_exits_3(tmp_path, capsys, default_estimate):
    # `beam_peak_index` held the envelope peak, not the beam centre, so an
    # estimate that carries only that field is refused, not reinterpreted
    raw_f, est_f, out_f = tmp_path / "raw.bsar", tmp_path / "est.json", tmp_path / "o.bsar"
    fileio.write_matrix(np.ones((4, 4), dtype=np.complex128), raw_f)
    fileio.write_estimate(default_estimate, est_f)
    doc = json.loads(est_f.read_text())
    doc["beam_peak_index"] = doc.pop("beam_center_row")
    est_f.write_text(json.dumps(doc))
    assert main(["focus", "--in", str(raw_f), "--est", str(est_f), "--out", str(out_f)]) == 3
    single_error_line(capsys, "format")
    assert not out_f.exists()


def estimate_default_scene(tmp_path, default_sim):
    """raw.bsar of the 512-pulse default scene and est.json estimated from it."""
    raw_f, est_f = tmp_path / "raw.bsar", tmp_path / "est.json"
    fileio.write_matrix(default_sim[0], raw_f)
    assert main(["estimate", "--in", str(raw_f), "--out", str(est_f)]) == 0
    return raw_f, est_f


def test_cli_focus_takes_the_pulse_grid_from_the_raw_file(tmp_path, default_scene,
                                                          default_sim):
    # noise is seeded per row, so the first 512 rows of a 1024-pulse raw are
    # the 512-pulse raw; the same estimate must focus both to the same target
    config, scene = default_scene
    raw_f, est_f = estimate_default_scene(tmp_path, default_sim)
    long_raw, _ = simulate_raw(replace(config, num_pulses=2 * config.num_pulses), scene)
    long_f = tmp_path / "long.bsar"
    fileio.write_matrix(long_raw, long_f)
    position = default_sim[1].positions[0]
    reports = []
    for raw_in in (raw_f, long_f):
        out_f = tmp_path / f"{raw_in.stem}_slc.bsar"
        assert main(["focus", "--in", str(raw_in), "--est", str(est_f), "--out", str(out_f)]) == 0
        reports.append(analyze_point_target(fileio.read_matrix(out_f)[0], position))
    short, long = reports
    assert long.irw_azimuth == pytest.approx(short.irw_azimuth, abs=0.01)
    assert long.pslr_azimuth == pytest.approx(short.pslr_azimuth, abs=0.1)


def focuses_the_same(tmp_path, raw_f, est_f, old_doc):
    """The estimate document `old_doc` focuses to est_f's bytes."""
    old_f = tmp_path / "old.json"
    old_f.write_text(json.dumps(old_doc))
    for name, est in (("new", est_f), ("old", old_f)):
        assert main(["focus", "--in", str(raw_f), "--est", str(est),
                     "--out", str(tmp_path / f"{name}.bsar")]) == 0
    assert (tmp_path / "new.bsar").read_bytes() == (tmp_path / "old.bsar").read_bytes()


def test_cli_estimate_with_a_beam_envelope_focuses_the_same(tmp_path, default_sim):
    # older estimates carry the smoothed |u1|; focusing ignores the key
    raw_f, est_f = estimate_default_scene(tmp_path, default_sim)
    doc = json.loads(est_f.read_text())
    doc["beam_envelope"] = [1.0] * default_sim[0].shape[0]
    focuses_the_same(tmp_path, raw_f, est_f, doc)


def test_cli_estimate_with_a_taper_and_fit_residuals_focuses_the_same(tmp_path, default_sim):
    # older estimates carry a taper_fraction per chirp and a fit_residuals
    # copy of the fit RMS values; focusing ignores both keys, untapered
    raw_f, est_f = estimate_default_scene(tmp_path, default_sim)
    doc = json.loads(est_f.read_text())
    chirps = doc["range_chirp"], doc["azimuth_chirp"]
    assert "fit_residuals" not in doc and not any("taper_fraction" in c for c in chirps)
    for chirp in chirps:
        chirp["taper_fraction"] = 0.1
    doc["fit_residuals"] = {"range": chirps[0]["fit_rms"], "azimuth": chirps[1]["fit_rms"]}
    focuses_the_same(tmp_path, raw_f, est_f, doc)


@pytest.mark.parametrize("case", ["beam-centre", "support"])
def test_cli_estimate_off_the_raw_grid_exits_2(tmp_path, capsys, default_sim, case):
    raw_f, est_f = estimate_default_scene(tmp_path, default_sim)
    doc = json.loads(est_f.read_text())
    if case == "beam-centre":
        doc["beam_center_row"] = float(default_sim[0].shape[0])
        est_f.write_text(json.dumps(doc))
    else:
        # a raw file that ends inside the estimate's azimuth support, after
        # its beam centre
        fileio.write_matrix(default_sim[0][:doc["azimuth_chirp"]["support"][1] - 1], raw_f)
    out_f = tmp_path / "o.bsar"
    capsys.readouterr()
    assert main(["focus", "--in", str(raw_f), "--est", str(est_f), "--out", str(out_f)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("bsar: parameter: "), err
    assert "pulse grid" in err[0], err
    assert not out_f.exists()


def test_cli_requires_exactly_one_parameter_source(tmp_path, capsys):
    raw_f = tmp_path / "raw.bsar"
    fileio.write_matrix(np.ones((4, 4), dtype=np.complex128), raw_f)
    assert main(["focus", "--in", str(raw_f),
                 "--out", str(tmp_path / "o.bsar")]) == 2
    assert "bsar: parameter:" in capsys.readouterr().err


def test_cli_format_error_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.bsar"
    bad.write_bytes(b"XSAR" + bytes(60))
    assert main(["estimate", "--in", str(bad),
                 "--out", str(tmp_path / "e.json")]) == 3
    assert "bsar: format:" in capsys.readouterr().err


def test_cli_bad_usage_exits_2(capsys):
    # a usage error is one parameter line, not argparse's usage block
    estimate = ["estimate", "--in", "raw.bsar", "--out", "est.json"]
    for argv in (["focus"],                            # missing required arguments
                 ["no-such-command"],
                 estimate + ["--bogus", "1"],          # unknown option
                 ["analyze", "--in", "blind.bsar", "--row", "abc", "--col", "480.5",
                  "--out", "r.csv"]):                  # not a number
        assert main(argv) == 2
        single_error_line(capsys, "parameter")
    focus = ["focus", "--in", "raw.bsar", "--est", "est.json", "--out", "x.bsar"]
    analyze = ["analyze", "--in", "blind.bsar", "--row", "256.5", "--col", "480.5",
               "--out", "r.csv"]
    render = ["render", "--in", "blind.bsar", "--out", "blind.pgm"]
    for argv, option in ((estimate, ["--taper", "0.1"]), (estimate, ["--k", "4"]),
                         (estimate, ["--seed", "3"]), (estimate, ["--gate", "3"]),
                         (focus, ["--dump-stages", "stages"]),
                         (analyze, ["--window", "64"]),
                         (render, ["--db", "-40"])):  # options since removed
        assert main(argv + option) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"bsar: parameter: unrecognized arguments: {' '.join(option)}"]
    for argv in (["--help"], ["--version"], ["focus", "--help"]):
        assert main(argv) == 0
    capsys.readouterr()


def test_cli_bad_window_string(tmp_path, capsys):
    a = tmp_path / "a.bsar"
    fileio.write_matrix(np.ones((4, 4), dtype=np.complex128), a, flags=fileio.FLAG_FOCUSED)
    assert main(["compare", "--a", str(a), "--b", str(a),
                 "--out", str(tmp_path / "c.json"), "--window", "oops"]) == 2
    assert "window" in capsys.readouterr().err


@pytest.mark.parametrize("window", ["300:200,448:512", "9000:9010,0:10"],
                         ids=["reversed", "outside"])
def test_cli_window_outside_image_exits_2(tmp_path, capsys, window):
    a = tmp_path / "a.bsar"
    fileio.write_matrix(np.ones((512, 1024), dtype=np.complex64), a, flags=fileio.FLAG_FOCUSED)
    args = ["compare", "--a", str(a), "--b", str(a), "--out", str(tmp_path / "c.json")]
    assert main(args + ["--window", window]) == 2
    single_error_line(capsys, "parameter")
    assert not (tmp_path / "c.json").exists()
    assert main(args + ["--window", "0:512,0:1024"]) == 0  # the whole image is a window


def test_cli_compare_window_reads_only_its_rows(tmp_path, capsys, monkeypatch):
    # both files are read keeping only the window's rows, to the same summary
    # as whole images give; every row is still scanned, so a NaN outside the
    # window is refused
    rng = np.random.default_rng(21)
    a, b = (rng.standard_normal((96, 40)) + 1j * rng.standard_normal((96, 40)) for _ in "ab")
    a_f, b_f, bad_f = tmp_path / "a.bsar", tmp_path / "b.bsar", tmp_path / "bad.bsar"
    fileio.write_matrix(a, a_f, flags=fileio.FLAG_FOCUSED)
    fileio.write_matrix(b, b_f, flags=fileio.FLAG_FOCUSED)
    b[80, 3] = np.nan
    fileio.write_matrix(b, bad_f, flags=fileio.FLAG_FOCUSED)
    whole_f, out_f = tmp_path / "whole.json", tmp_path / "c.json"
    fileio.write_json(compare_images(fileio.read_matrix(a_f)[0], fileio.read_matrix(b_f)[0],
                                     window=(10, 30, 4, 12)), whole_f)
    read_matrix, keeps = fileio.read_matrix, []

    def recorded(path, keep=None, focused=None):
        keeps.append(keep)
        return read_matrix(path, keep=keep, focused=focused)

    monkeypatch.setattr(fileio, "read_matrix", recorded)
    args = ["compare", "--a", str(a_f), "--out", str(out_f), "--window", "10:30,4:12"]
    assert main([*args, "--b", str(b_f)]) == 0
    assert keeps == [(10, 30), (10, 30)]
    assert out_f.read_bytes() == whole_f.read_bytes()
    out_f.unlink()
    capsys.readouterr()
    assert main([*args, "--b", str(bad_f)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"bsar: parameter: {bad_f}: non-finite sample at row 80, column 3"]
    assert not out_f.exists()


@pytest.mark.parametrize("gate", ["nan", "inf", "-1", "0", "1"])
def test_cli_gate_that_cannot_refuse_exits_2(tmp_path, capsys, default_sim, gate):
    # sigma1/sigma2 >= 1, so a gate at or below 1 would pass any scene; the
    # gate is a constant, and no value of the removed --gate is taken
    raw_f = tmp_path / "raw.bsar"
    est_f = tmp_path / "est.json"
    spectrum_f = tmp_path / "spectrum.csv"
    fileio.write_matrix(default_sim[0], raw_f)
    assert main(["estimate", "--in", str(raw_f), "--out", str(est_f),
                 "--spectrum", str(spectrum_f), "--gate", gate]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"bsar: parameter: unrecognized arguments: --gate {gate}"]
    assert not est_f.exists() and not spectrum_f.exists()


def test_cli_gate_is_refused_before_the_raw_file_is_read(tmp_path, capsys, default_sim):
    # the raw file holds a NaN sample past the first row block; the removed
    # option, a usage error before the read, is what the one error line names
    raw = default_sim[0].copy()
    raw[300, 17] = np.nan
    raw_f, est_f = tmp_path / "raw.bsar", tmp_path / "est.json"
    fileio.write_matrix(raw, raw_f)
    assert main(["estimate", "--in", str(raw_f), "--out", str(est_f), "--gate", "0.5"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "bsar: parameter: unrecognized arguments: --gate 0.5"]
    assert not est_f.exists()


def test_cli_missing_input_file_exits_2(tmp_path, capsys):
    assert main(["estimate", "--in", str(tmp_path / "nope.bsar"),
                 "--out", str(tmp_path / "e.json")]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "estimate", "focus", "analyze", "compare",
                                     "render", "analyze-in"])
def test_cli_directory_as_a_file_exits_2(tmp_path, capsys, default_sim, default_estimate,
                                         blind_image, command):
    # a directory as --out, or as --in: one line naming it, no traceback
    raw_f, est_f, slc_f, report_f, folder = (tmp_path / name for name in (
        "raw.bsar", "est.json", "slc.bsar", "report.csv", "folder"))
    fileio.write_matrix(default_sim[0], raw_f)
    fileio.write_estimate(default_estimate, est_f)
    fileio.write_matrix(blind_image.image, slc_f, flags=fileio.FLAG_FOCUSED)
    folder.mkdir()
    position = ["--row", "256.5", "--col", "480.5"]
    argv = {
        "simulate": ["simulate", "--config", DEFAULT_CONFIG, "--out", folder],
        "estimate": ["estimate", "--in", raw_f, "--out", folder],
        "focus": ["focus", "--in", raw_f, "--est", est_f, "--out", folder],
        "analyze": ["analyze", "--in", slc_f, *position, "--out", folder],
        "compare": ["compare", "--a", slc_f, "--b", slc_f, "--out", folder],
        "render": ["render", "--in", slc_f, "--out", folder],
        "analyze-in": ["analyze", "--in", folder, *position, "--out", report_f],
    }[command]
    assert main([str(arg) for arg in argv]) == 2
    assert single_error_line(capsys, "parameter").endswith(f": {folder}")
    assert not report_f.exists() and not any(folder.iterdir())


@pytest.mark.parametrize("command", ["estimate", "focus-est", "focus-oracle"])
def test_cli_focused_input_is_refused(monkeypatch, tmp_path, capsys, default_sim,
                                      default_estimate, blind_image, command):
    # a file whose flag bit 0 marks it focused is not raw data: one line
    # naming it, exit 2, no output, and neither a decomposition nor a
    # focusing pass nor, for focus, a read of the estimate or truth
    est_f, truth_f, slc_f, out_f, spectrum_f = (tmp_path / name for name in (
        "est.json", "truth.json", "slc.bsar", "out", "s.csv"))
    fileio.write_estimate(default_estimate, est_f)
    fileio.write_json(default_sim[1], truth_f)
    fileio.write_matrix(blind_image.image, slc_f, flags=fileio.FLAG_FOCUSED)
    argv = {
        "estimate": ["estimate", "--in", slc_f, "--out", out_f, "--spectrum", spectrum_f],
        "focus-est": ["focus", "--in", slc_f, "--est", est_f, "--out", out_f],
        "focus-oracle": ["focus", "--in", slc_f, "--oracle", truth_f, "--out", out_f],
    }[command]
    called = []
    for module, name in ((bsar.cli, "leading_triplets"), (bsar.cli, "focus_pipeline"),
                         (fileio, "read_estimate"), (fileio, "read_truth")):
        monkeypatch.setattr(module, name, lambda *args, name=name, **kw: called.append(name))
    assert main([str(arg) for arg in argv]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"bsar: parameter: {slc_f}: a focused image (flag bit 0), not raw data"]
    assert called == []
    assert not out_f.exists() and not spectrum_f.exists()


@pytest.mark.parametrize("command", ["analyze", "compare-a", "compare-b"])
def test_cli_raw_input_is_refused_where_a_focused_image_is_read(
        monkeypatch, tmp_path, capsys, default_sim, blind_image, command):
    # a file whose flag bit 0 is clear is raw data, not an image to analyze
    # or compare: one line naming it, exit 2, no output, and none of its
    # rows is read
    raw_f, slc_f, out_f = (tmp_path / name for name in ("raw.bsar", "slc.bsar", "out"))
    fileio.write_matrix(default_sim[0], raw_f)
    fileio.write_matrix(blind_image.image, slc_f, flags=fileio.FLAG_FOCUSED)
    argv = {
        "analyze": ["analyze", "--in", raw_f, "--row", "256.5", "--col", "480.5"],
        "compare-a": ["compare", "--a", raw_f, "--b", slc_f],
        "compare-b": ["compare", "--a", slc_f, "--b", raw_f],
    }[command]
    read, read_from = fileio.MatrixReader.read, set()

    def recorded(reader, rows, out=None):
        read_from.add(reader.path)
        return read(reader, rows, out)

    monkeypatch.setattr(fileio.MatrixReader, "read", recorded)
    assert main([str(arg) for arg in [*argv, "--out", out_f]]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"bsar: parameter: {raw_f}: raw data (flag bit 0 clear), not a focused image"]
    assert str(raw_f) not in read_from
    assert not out_f.exists()


def test_cli_render_reads_raw_data(tmp_path, default_sim):
    # render reads either kind: raw data renders to the PGM of its matrix
    raw_f, pgm_f, expected_f = (tmp_path / name for name in ("raw.bsar", "raw.pgm", "x.pgm"))
    fileio.write_matrix(default_sim[0], raw_f)
    assert main(["render", "--in", str(raw_f), "--out", str(pgm_f)]) == 0
    fileio.render_magnitude(fileio.read_matrix(raw_f)[0], expected_f)
    assert pgm_f.read_bytes() == expected_f.read_bytes()


@pytest.mark.parametrize("case", ["simulate-truth", "analyze-json", "estimate-spectrum",
                                  "focus-missing-parent"])
def test_cli_unwritable_output_is_refused_before_any_input_is_read(
        monkeypatch, tmp_path, capsys, default_sim, default_estimate, blind_image, case):
    # every output path is checked first, so a later one that cannot be
    # written leaves no earlier output behind, and no input is opened
    raw_f, est_f, slc_f, folder = (tmp_path / name for name in (
        "raw.bsar", "est.json", "slc.bsar", "folder"))
    fileio.write_matrix(default_sim[0], raw_f)
    fileio.write_estimate(default_estimate, est_f)
    fileio.write_matrix(blind_image.image, slc_f, flags=fileio.FLAG_FOCUSED)
    folder.mkdir()
    argv, path, reason = {
        "simulate-truth": (["simulate", "--config", DEFAULT_CONFIG, "--out", tmp_path / "r2.bsar",
                            "--truth", folder], folder, "Is a directory"),
        "analyze-json": (["analyze", "--in", slc_f, "--row", "256.5", "--col", "480.5",
                          "--out", tmp_path / "r.csv", "--json", folder], folder, "Is a directory"),
        "estimate-spectrum": (["estimate", "--in", raw_f, "--out", folder,
                               "--spectrum", tmp_path / "s.csv"], folder, "Is a directory"),
        "focus-missing-parent": (["focus", "--in", raw_f, "--est", est_f,
                                  "--out", folder / "missing" / "blind.bsar"],
                                 folder / "missing" / "blind.bsar", "file not found"),
    }[case]
    opened = []

    def recorded(name, original):
        def call(*args, **kw):
            opened.append(name)
            return original(*args, **kw)
        return call

    for name in ("load_scene", "read_matrix", "MatrixReader"):
        monkeypatch.setattr(fileio, name, recorded(name, getattr(fileio, name)))
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([str(arg) for arg in argv]) == 2
    assert capsys.readouterr().err.splitlines() == [f"bsar: parameter: {reason}: {path}"]
    assert opened == []
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_simulate_deterministic(tmp_path):
    a = tmp_path / "a.bsar"
    b = tmp_path / "b.bsar"
    assert main(["simulate", "--config", str(DEFAULT_CONFIG), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(DEFAULT_CONFIG), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("rewritten", [False, True], ids=["unchanged", "rewritten"])
def test_cli_estimate_hashes_the_bytes_it_read(monkeypatch, tmp_path, default_sim, rewritten):
    # input_sha256 is the raw file's SHA-256, taken from the bytes read, so
    # a file rewritten while the estimate runs is not read a second time
    raw_f, est_f = tmp_path / "raw.bsar", tmp_path / "est.json"
    fileio.write_matrix(default_sim[0], raw_f)
    digest = hashlib.sha256(raw_f.read_bytes()).hexdigest()
    estimate = bsar.cli.blind_estimate

    def rewriting(raw, **kw):
        if rewritten:
            fileio.write_matrix(2 * raw, raw_f)
        return estimate(raw, **kw)

    monkeypatch.setattr(bsar.cli, "blind_estimate", rewriting)
    assert main(["estimate", "--in", str(raw_f), "--out", str(est_f)]) == 0
    assert strict_json(est_f)["input_sha256"] == digest
    assert (hashlib.sha256(raw_f.read_bytes()).hexdigest() != digest) == rewritten


def test_cli_csv_outputs_are_numeric(tmp_path, default_sim, blind_image):
    raw, truth = default_sim
    raw_f, slc_f = tmp_path / "raw.bsar", tmp_path / "slc.bsar"
    spec_f, report_f = tmp_path / "spectrum.csv", tmp_path / "report.csv"
    fileio.write_matrix(raw, raw_f)
    fileio.write_matrix(blind_image.image, slc_f, flags=fileio.FLAG_FOCUSED)
    est_f = tmp_path / "est.json"
    assert main(["estimate", "--in", str(raw_f), "--out", str(est_f),
                 "--spectrum", str(spec_f)]) == 0
    row0, col0 = truth.positions[0]
    assert main(["analyze", "--in", str(slc_f), "--row", str(row0), "--col", str(col0),
                 "--out", str(report_f)]) == 0

    header, *rows = spec_f.read_text().splitlines()
    assert header == "index,singular_value"
    assert [r.split(",")[0] for r in rows] == ["0", "1", "dominance_ratio"]
    values = [float(r.split(",")[1]) for r in rows]
    assert values[-1] == pytest.approx(values[0] / values[1])
    assert values[-1] == strict_json(est_f)["dominance_ratio"]

    header, line = report_f.read_text().splitlines()
    assert header == ("peak_row,peak_col,peak_magnitude,irw_range,irw_azimuth,"
                      "pslr_range,pslr_azimuth,islr_range,islr_azimuth,oversample_factor")
    report = dict(zip(header.split(","), (float(v) for v in line.split(","))))
    assert abs(report["peak_row"] - row0) <= 1.0
    assert report["oversample_factor"] == 16


def test_cli_nan_sample_exits_2(tmp_path, capsys):
    raw = np.ones((16, 16), dtype=np.complex128)
    raw[5, 7] = np.nan
    raw_f = tmp_path / "nan.bsar"
    fileio.write_matrix(raw, raw_f)
    assert main(["estimate", "--in", str(raw_f), "--out", str(tmp_path / "e.json")]) == 2
    single_error_line(capsys, "parameter")


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("command", ["estimate", "focus-est", "focus-oracle", "analyze",
                                     "compare-a", "compare-b", "render"])
def test_cli_non_finite_sample_exits_2(tmp_path, capsys, default_sim, default_estimate,
                                       bad, command):
    # one bad sample past the first row block of the desk scene's raw file,
    # flagged focused for analyze and compare: the error names the file, its
    # row and column, and nothing is written
    raw, truth = default_sim
    good_f, bad_f, est_f, truth_f = (tmp_path / name for name in (
        "good.bsar", "bad.bsar", "est.json", "truth.json"))
    flags = fileio.FLAG_FOCUSED if command.startswith(("analyze", "compare")) else 0
    fileio.write_matrix(raw, good_f, flags=flags)
    damaged = raw.copy()
    damaged[300, 17] = bad
    fileio.write_matrix(damaged, bad_f, flags=flags)
    fileio.write_estimate(default_estimate, est_f)
    fileio.write_json(truth, truth_f)
    argv = {
        "estimate": ["estimate", "--in", bad_f, "--spectrum", tmp_path / "s.csv"],
        "focus-est": ["focus", "--in", bad_f, "--est", est_f],
        "focus-oracle": ["focus", "--in", bad_f, "--oracle", truth_f],
        "analyze": ["analyze", "--in", bad_f, "--row", "256", "--col", "480"],
        "compare-a": ["compare", "--a", bad_f, "--b", good_f],
        "compare-b": ["compare", "--a", good_f, "--b", bad_f],
        "render": ["render", "--in", bad_f],
    }[command]
    capsys.readouterr()
    assert main([str(arg) for arg in [*argv, "--out", tmp_path / "out"]]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"bsar: parameter: {bad_f}: non-finite sample at row 300, column 17"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bad.bsar", "est.json", "good.bsar", "truth.json"]


@pytest.mark.parametrize("argv", [
    ["analyze", "--row=nan", "--col=480"],
    ["analyze", "--row=inf", "--col=480"],
    ["analyze", "--row=256", "--col=nan"],
    ["analyze", "--row=256", "--col=-inf"],
    ["render", "--db=-inf"],
    ["render", "--db=nan"],
], ids=["row-nan", "row-inf", "col-nan", "col-minus-inf", "db-minus-inf", "db-nan"])
def test_cli_non_finite_position_or_floor_exits_2(tmp_path, capsys, blind_image, argv):
    # the floor is a constant now, so any --db is a usage error
    slc_f, out_f = tmp_path / "slc.bsar", tmp_path / "out"
    fileio.write_matrix(blind_image.image, slc_f, flags=fileio.FLAG_FOCUSED)
    assert main([*argv, "--in", str(slc_f), "--out", str(out_f)]) == 2
    single_error_line(capsys, "parameter")
    assert not out_f.exists()


@pytest.mark.parametrize("case", ["rng_seed-negative",
                                  "rng_seed-fraction", "num_pulses-fraction",
                                  "samples_per_pulse-bool"])
def test_cli_seed_or_grid_size_not_a_count_exits_2(tmp_path, capsys, case):
    # refused before any sample is drawn
    field, problem = case.rsplit("-", 1)
    out_f = tmp_path / "out"
    doc = json.loads(DEFAULT_CONFIG.read_text())
    value = {"negative": -1, "fraction": doc["config"][field] + 0.5, "bool": True}[problem]
    doc["config"][field] = value
    config_f = tmp_path / "config.json"
    config_f.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config_f), "--out", str(out_f)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"bsar: parameter: {field} must be "), err
    assert not out_f.exists()


SIMULATE_REFUSALS = {  # case: (section, field, value, kind of the error line)
    "noise_sigma-nan": ("config", "noise_sigma", math.nan, "parameter"),
    "noise_sigma-inf": ("config", "noise_sigma", math.inf, "parameter"),
    "wavelength-inf": ("config", "wavelength", math.inf, "parameter"),
    "squint_offset-inf": ("config", "squint_offset", math.inf, "parameter"),
    "squint_offset-nan": ("config", "squint_offset", math.nan, "parameter"),
    "azimuth_time-nan": ("scene", "azimuth_time", math.nan, "parameter"),
    "range_offset-nan": ("scene", "range_offset", math.nan, "parameter"),
    "reflectivity-nan": ("scene", "reflectivity", [math.nan, 0.0], "parameter"),
    "reflectivity-1e300": ("scene", "reflectivity", [1e300, 0.0], "configuration"),
    "closest_range-1e308": ("config", "closest_range", 1e308, "configuration"),
}


@pytest.mark.parametrize("case", [*SIMULATE_REFUSALS, "estimate-overflow", "focus-overflow"])
def test_cli_refusal_of_a_non_finite_or_overflowing_input_is_one_line(
        tmp_path, default_sim, default_estimate, case):
    # in a fresh process, whose stderr also holds numpy's warnings: the one
    # error line is all of it, and no output file is written; the raw file
    # x 1e37 fits float32, but its decomposition's energy and pass 1's
    # complex64 map do not
    if case in SIMULATE_REFUSALS:
        section, field, value, kind = SIMULATE_REFUSALS[case]
        doc = json.loads(DEFAULT_CONFIG.read_text())
        (doc["config"] if section == "config" else doc["scene"][0])[field] = value
        (tmp_path / "config.json").write_text(json.dumps(doc))
        argv = ["simulate", "--config", "config.json", "--truth", "truth.json"]
    else:
        kind = "parameter"
        fileio.write_matrix(default_sim[0] * 1e37, tmp_path / "raw.bsar")
        fileio.write_estimate(default_estimate, tmp_path / "est.json")
        argv = {
            "estimate-overflow": ["estimate", "--in", "raw.bsar", "--spectrum", "s.csv"],
            "focus-overflow": ["focus", "--in", "raw.bsar", "--est", "est.json"],
        }[case]
    inputs = sorted(tmp_path.rglob("*"))
    proc = run_python(["-m", "bsar.cli", *argv, "--out", "out"], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith(f"bsar: {kind}: "), err
    assert [p for p in sorted(tmp_path.rglob("*")) if p.is_file()] == inputs


@pytest.mark.parametrize("scene", ["desk_default", "empty"])
def test_cli_simulate_refuses_a_pulse_longer_than_the_swath_before_building_it(
        tmp_path, capsys, scene):
    # a 2e6-sample pulse against the 1024-sample swath, with or without a
    # scatterer whose echo it would carry: the config refuses it, before the
    # pulse (32 MB in complex128) and its spectrum are built
    doc = json.loads(DEFAULT_CONFIG.read_text())
    doc["config"].update(chirp_rate=1e8, chirp_duration=0.04)
    if scene == "empty":
        doc["scene"] = []
    cfg_f, out_f = tmp_path / "config.json", tmp_path / "raw.bsar"
    cfg_f.write_text(json.dumps(doc))
    capsys.readouterr()
    tracemalloc.start()
    try:
        status = main(["simulate", "--config", str(cfg_f), "--out", str(out_f)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 2 and peak < 2**20, (status, peak)
    assert capsys.readouterr().err.splitlines() == [
        "bsar: parameter: the 2000000-sample pulse is longer than the 1024-sample swath"]
    assert not out_f.exists()


def test_write_matrix_refuses_an_overflowing_matrix(tmp_path):
    # the cast to float32 would write an infinity; the partial file goes
    x = np.ones((130, 7), dtype=np.complex128)
    x[129, 6] = 1e39
    with pytest.raises(ParameterError, match="overflows float32"):
        fileio.write_matrix(x, tmp_path / "m.bsar")
    assert not (tmp_path / "m.bsar").exists()


@pytest.mark.parametrize("shape", [(1, 64), (64, 1)], ids=["one-row", "one-column"])
def test_cli_one_row_or_column_exits_2(tmp_path, capsys, shape):
    raw_f, est_f, spec_f = tmp_path / "raw.bsar", tmp_path / "est.json", tmp_path / "s.csv"
    chirp = np.exp(2j * np.pi * 1e-3 * (np.arange(64) - 32.0) ** 2)
    fileio.write_matrix(chirp.reshape(shape), raw_f)
    assert main(["estimate", "--in", str(raw_f), "--out", str(est_f),
                 "--spectrum", str(spec_f)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"bsar: parameter: raw matrix is {shape[0]}x{shape[1]}: "
        "the estimate needs at least 2 rows and 2 columns"]
    assert not est_f.exists() and not spec_f.exists()


def test_cli_all_zero_matrix_exits_4(tmp_path, capsys):
    raw_f = tmp_path / "zero.bsar"
    fileio.write_matrix(np.zeros((32, 48), dtype=np.complex128), raw_f)
    assert main(["estimate", "--in", str(raw_f), "--out", str(tmp_path / "e.json")]) == 4
    single_error_line(capsys, "unsuitable-scene")


@pytest.mark.parametrize("raw", [
    np.ones((64, 96), dtype=np.complex128),
    np.outer(np.ones(64), np.exp(2j * np.pi * 0.1 * np.arange(96))),
], ids=["constant", "range-tone"])
def test_cli_chirpless_matrix_exits_2(tmp_path, capsys, raw):
    # rank one, so it passes the dominance gate, but no phase is quadratic
    raw_f = tmp_path / "flat.bsar"
    fileio.write_matrix(raw, raw_f)
    assert main(["estimate", "--in", str(raw_f), "--out", str(tmp_path / "e.json")]) == 2
    single_error_line(capsys, "degenerate-fit")


def test_cli_import_leaves_scipy_out():
    proc = run_python(["-c", "import sys, bsar.cli; "
                             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_focus_and_analyze_leave_numpy_ma_out(tmp_path):
    # np.median's NaN check imports numpy.ma, which costs a fresh process
    # more than a focus step's tracking does
    raw_f, est_f = tmp_path / "raw.bsar", tmp_path / "est.json"
    assert main(["simulate", "--config", str(DEFAULT_CONFIG), "--out", str(raw_f)]) == 0
    assert main(["estimate", "--in", str(raw_f), "--out", str(est_f)]) == 0
    probe = ("import sys; from bsar.cli import main; status = main(sys.argv[1:]); "
             "print(status, 'numpy.ma' in sys.modules)")
    for step in (["focus", "--in", "raw.bsar", "--est", "est.json", "--out", "blind.bsar"],
                 ["analyze", "--in", "blind.bsar", "--row", "256.5", "--col", "480.5",
                  "--out", "report.csv"]):
        proc = run_python(["-c", probe, *step], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"], (step, proc.stdout)


def test_benchmark_tracer_finds_every_wrapped_name(tmp_path):
    # the tracer wraps bsar functions by name; a deleted name fails install
    proc = run_python([str(REPO / "bench" / "tracing.py"), str(tmp_path / "spans.json"),
                       "--version"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("bsar ")


def test_benchmark_tracer_sees_one_decomposition(tmp_path):
    # the spectrum CSV and the estimate share one leading_triplets call
    fileio.write_matrix(separable_chirp_matrix(), tmp_path / "raw.bsar")
    spans_f = tmp_path / "spans.json"
    proc = run_python([str(REPO / "bench" / "tracing.py"), str(spans_f), "estimate",
                       "--in", "raw.bsar", "--out", "est.json", "--spectrum", "s.csv"],
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_f.read_text())
    calls = [s for s in spans if s["name"] == "decompose.leading_triplets"]
    assert len(calls) == 1 and calls[0]["k"] == 2, calls
