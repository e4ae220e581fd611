import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bsar import fileio
from bsar.cli import main
from bsar.core import ChirpModel, synth_chirp
from bsar.errors import FormatError
from conftest import DEFAULT_CONFIG

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


def test_file_size_formula(tmp_path):
    path = tmp_path / "z.bsar"
    fileio.write_matrix(np.zeros((512, 1024), dtype=np.complex128), path)
    assert path.stat().st_size == 32 + 512 * 1024 * 8


def test_bad_magic_offset(tmp_path):
    path = tmp_path / "bad.bsar"
    fileio.write_matrix(np.ones((2, 2), dtype=np.complex128), path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XSAR"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError) as info:
        fileio.read_matrix(path)
    assert info.value.offset == 0


def test_bad_version_offset(tmp_path):
    path = tmp_path / "bad.bsar"
    fileio.write_matrix(np.ones((2, 2), dtype=np.complex128), path)
    data = bytearray(path.read_bytes())
    data[4] = 9
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError) as info:
        fileio.read_matrix(path)
    assert info.value.offset == 4


def test_truncated_payload_offset(tmp_path):
    path = tmp_path / "trunc.bsar"
    fileio.write_matrix(np.ones((4, 4), dtype=np.complex128), path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FormatError) as info:
        fileio.read_matrix(path)
    assert info.value.offset == len(data) - 8


def test_trailing_bytes_rejected(tmp_path, capsys):
    path = tmp_path / "long.bsar"
    fileio.write_matrix(np.ones((4, 4), dtype=np.complex128), path)
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(FormatError) as info:
        fileio.read_matrix(path)
    assert info.value.offset == 32 + 4 * 4 * 8
    assert main(["render", "--in", str(path), "--out", str(tmp_path / "r.pgm")]) == 3
    single_error_line(capsys, "format")


# --- PGM rendering ----------------------------------------------------------------

def test_render_single_pixel(tmp_path):
    img = np.zeros((4, 6), dtype=np.complex128)
    img[1, 2] = 5.0
    path = tmp_path / "r.pgm"
    fileio.render_magnitude(img, -40.0, path)
    data = path.read_bytes()
    header = b"P5\n6 4\n255\n"
    assert data.startswith(header)
    pixels = np.frombuffer(data[len(header):], dtype=np.uint8).reshape(4, 6)
    assert pixels[1, 2] == 255
    assert np.sum(pixels) == 255


def test_render_constant_magnitude(tmp_path):
    img = np.exp(1j * np.linspace(0, 3, 24)).reshape(4, 6)
    path = tmp_path / "c.pgm"
    fileio.render_magnitude(img, -40.0, path)
    header = b"P5\n6 4\n255\n"
    pixels = np.frombuffer(path.read_bytes()[len(header):], dtype=np.uint8)
    assert np.all(pixels == 255)


def test_render_header_for_512x1024(tmp_path):
    path = tmp_path / "big.pgm"
    with pytest.warns(UserWarning):
        fileio.render_magnitude(np.zeros((512, 1024), dtype=np.complex128),
                                -40.0, path)
    assert path.read_bytes().startswith(b"P5\n1024 512\n255\n")


def test_render_rejects_nonnegative_floor(tmp_path):
    from bsar.errors import ParameterError

    with pytest.raises(ParameterError):
        fileio.render_magnitude(np.ones((2, 2)), 0.0, tmp_path / "x.pgm")


# --- JSON sidecars -----------------------------------------------------------------

def test_estimate_roundtrip(tmp_path, default_estimate):
    path = tmp_path / "est.json"
    fileio.write_estimate(default_estimate, path, input_hash="abc123")
    back, input_hash = fileio.read_estimate(path)
    assert input_hash == "abc123"
    assert back.range_chirp == default_estimate.range_chirp
    assert back.azimuth_chirp == default_estimate.azimuth_chirp
    assert back.doppler_centroid == default_estimate.doppler_centroid
    np.testing.assert_array_equal(back.beam_envelope,
                                  default_estimate.beam_envelope)


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
    azimuth = beam * synth_chirp(ChirpModel(rate=-2e-3, center=64.0, support=(0, 128)), 128)
    pulse = synth_chirp(ChirpModel(rate=4e-3, center=60.0, support=(30, 91)), 160)
    grid = 256.0
    return np.outer(np.round(azimuth * grid) / grid, np.round(pulse * grid) / grid)


def test_infinite_dominance_ratio_is_strict_json(tmp_path):
    raw_f, est_f, spec_f = tmp_path / "raw.bsar", tmp_path / "est.json", tmp_path / "s.csv"
    fileio.write_matrix(separable_chirp_matrix(), raw_f)
    assert main(["estimate", "--in", str(raw_f), "--out", str(est_f),
                 "--spectrum", str(spec_f)]) == 0
    assert strict_json(est_f)["dominance_ratio"] == "inf"
    est, _ = fileio.read_estimate(est_f)
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
                 "--taper", "0.0", "--spectrum", str(spec_f)]) == 0
    assert main(["focus", "--in", str(raw_f), "--est", str(est_f),
                 "--out", str(blind_f)]) == 0
    assert main(["focus", "--in", str(raw_f), "--oracle", str(truth_f),
                 "--taper", "0.0", "--out", str(oracle_f)]) == 0

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

    assert main(["render", "--in", str(blind_f), "--db", "-40",
                 "--out", str(pgm_f)]) == 0
    assert pgm_f.read_bytes().startswith(b"P5\n1024 512\n255\n")

    # the spectrum CSV records a dominance ratio above the gate
    lines = spec_f.read_text().strip().splitlines()
    assert lines[0] == "index,singular_value"
    assert float(lines[-1].split(",")[1]) >= 3.0


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


def test_cli_missing_estimate_exits_2(tmp_path, capsys):
    raw_f = tmp_path / "raw.bsar"
    fileio.write_matrix(np.ones((4, 4), dtype=np.complex128), raw_f)
    code = main(["focus", "--in", str(raw_f),
                 "--est", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "out.bsar")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("bsar: ") and "--est" in err


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
    assert main(["focus"]) == 2          # missing required arguments
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_cli_bad_window_string(tmp_path, capsys):
    a = tmp_path / "a.bsar"
    fileio.write_matrix(np.ones((4, 4), dtype=np.complex128), a)
    assert main(["compare", "--a", str(a), "--b", str(a),
                 "--out", str(tmp_path / "c.json"), "--window", "oops"]) == 2
    assert "window" in capsys.readouterr().err


def test_cli_missing_input_file_exits_2(tmp_path, capsys):
    assert main(["estimate", "--in", str(tmp_path / "nope.bsar"),
                 "--out", str(tmp_path / "e.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_cli_simulate_deterministic(tmp_path):
    a = tmp_path / "a.bsar"
    b = tmp_path / "b.bsar"
    assert main(["simulate", "--config", str(DEFAULT_CONFIG), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(DEFAULT_CONFIG), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_dump_stages(tmp_path):
    raw_f = tmp_path / "raw.bsar"
    est_f = tmp_path / "est.json"
    stages = tmp_path / "stages"
    assert main(["simulate", "--config", str(DEFAULT_CONFIG), "--out", str(raw_f)]) == 0
    assert main(["estimate", "--in", str(raw_f), "--out", str(est_f)]) == 0
    assert main(["focus", "--in", str(raw_f), "--est", str(est_f),
                 "--out", str(tmp_path / "slc.bsar"),
                 "--dump-stages", str(stages)]) == 0
    names = sorted(p.name for p in stages.iterdir())
    assert names == ["azimuth_compress.bsar", "range_compress.bsar", "rcmc.bsar"]


def test_cli_csv_outputs_are_numeric(tmp_path, default_sim, blind_image):
    raw, truth = default_sim
    raw_f, slc_f = tmp_path / "raw.bsar", tmp_path / "slc.bsar"
    spec_f, report_f = tmp_path / "spectrum.csv", tmp_path / "report.csv"
    fileio.write_matrix(raw, raw_f)
    fileio.write_matrix(blind_image.image, slc_f, flags=fileio.FLAG_FOCUSED)
    assert main(["estimate", "--in", str(raw_f), "--out", str(tmp_path / "est.json"),
                 "--k", "3", "--spectrum", str(spec_f)]) == 0
    row0, col0 = truth.positions[0]
    assert main(["analyze", "--in", str(slc_f), "--row", str(row0), "--col", str(col0),
                 "--out", str(report_f)]) == 0

    header, *rows = spec_f.read_text().splitlines()
    assert header == "index,singular_value"
    assert [r.split(",")[0] for r in rows] == ["0", "1", "2", "dominance_ratio"]
    values = [float(r.split(",")[1]) for r in rows]
    assert values[-1] == pytest.approx(values[0] / values[1])

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
