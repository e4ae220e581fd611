"""Property tests of the file round-trips (BSAR matrices and estimate JSON)
and of the CLI's mapping from error to exit status."""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bsar import cli, errors, fileio
from bsar.core import ChirpModel
from bsar.estimate import BlindEstimate

ROUNDTRIPS = settings(max_examples=60, deadline=None)

SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# written as "nan", "inf" and "-inf", and drawn often: st.floats() alone
# rarely gives them within a few dozen examples
ANY_FLOAT = st.sampled_from([float("nan"), float("inf"), -float("inf")]) | st.floats()


def written_and_read(write, read, name):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        write(path)
        return read(path), path.read_bytes()


@ROUNDTRIPS
@given(matrix=hnp.arrays(np.complex64, SHAPES), flags=st.integers(0, 0xFFFF),
       transposed=st.booleans())
def test_bsar_complex64_roundtrip_is_bit_exact(matrix, flags, transposed):
    # every float32 pattern, NaN payloads included, in any memory order, as
    # the file's bytes: read_matrix refuses a non-finite sample
    x = matrix.T if transposed else matrix
    _, raw = written_and_read(lambda p: fileio.write_matrix(x, p, flags), lambda p: None,
                              "m.bsar")
    assert fileio.HEADER.unpack(raw[:fileio.HEADER.size])[2:5] == (flags, *x.shape)
    assert raw[fileio.HEADER.size:] == np.ascontiguousarray(x).tobytes()


@ROUNDTRIPS
@given(matrix=hnp.arrays(np.complex64, SHAPES), flags=st.integers(0, 0xFFFF))
def test_read_matrix_returns_the_matrix_or_names_its_first_non_finite_sample(matrix, flags):
    try:
        (back, back_flags), _ = written_and_read(
            lambda p: fileio.write_matrix(matrix, p, flags), fileio.read_matrix, "m.bsar")
    except errors.SampleError as exc:
        row, col = np.argwhere(~np.isfinite(matrix))[0]  # row-major order
        assert str(exc).endswith(f": non-finite sample at row {row}, column {col}")
    else:
        assert np.isfinite(matrix).all()
        assert back_flags == flags
        assert back.dtype == np.complex64 and back.tobytes() == matrix.tobytes()


@ROUNDTRIPS
@given(matrix=hnp.arrays(np.complex128, SHAPES,
                         elements=st.complex_numbers(max_magnitude=1e30, allow_nan=False)))
def test_bsar_complex128_reads_back_as_its_float32_cast(matrix):
    (back, _), _ = written_and_read(
        lambda p: fileio.write_matrix(matrix, p), fileio.read_matrix, "m.bsar")
    assert back.tobytes() == matrix.astype(np.complex64).tobytes()


@st.composite
def chirp_models(draw):
    start = draw(st.integers(0, 2**40))
    return ChirpModel(
        rate=draw(FINITE), center=draw(FINITE),
        support=(start, start + draw(st.integers(1, 2**20))),
        constant=draw(FINITE), fit_rms=draw(ANY_FLOAT),
    )


@st.composite
def estimates(draw):
    return BlindEstimate(
        range_chirp=draw(chirp_models()), azimuth_chirp=draw(chirp_models()),
        doppler_centroid=draw(st.floats(-0.5, 0.5, exclude_min=True)),
        beam_center_row=draw(ANY_FLOAT), dominance_ratio=draw(ANY_FLOAT),
    )


@ROUNDTRIPS
@given(estimate=estimates(), input_hash=st.text("0123456789abcdef", max_size=64))
def test_estimate_json_roundtrip_is_exact(estimate, input_hash):
    back, raw = written_and_read(
        lambda p: fileio.write_estimate(estimate, p, input_hash), fileio.read_estimate,
        "est.json")
    # repr spells every float exactly and NaN as nan, so equal reprs are an
    # exact, NaN-aware comparison of every field and its type
    assert repr(back) == repr(estimate)
    doc = json.loads(raw, parse_constant=reject_constant)  # strict RFC 8259 JSON
    assert doc["input_sha256"] == input_hash


def reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


def error_classes(base=errors.BsarError):
    return [base] + [c for sub in base.__subclasses__() for c in error_classes(sub)]


# the statuses the CLI documents, by the first listed base class an error has
DOCUMENTED_STATUS = ((errors.ParameterError, 2), (errors.FormatError, 3),
                     (errors.UnsuitableSceneError, 4), (errors.ConvergenceError, 5))


@settings(max_examples=100, deadline=None)
@given(cls=st.sampled_from(error_classes()), message=st.text())
def test_error_maps_to_its_exit_status_and_one_line(cls, message):
    def command(args):
        raise cls(message)

    err = io.StringIO()
    with mock.patch.dict(cli.COMMANDS, {"render": command}), contextlib.redirect_stderr(err):
        status = cli.main(["render", "--in", "in.bsar", "--out", "out.pgm"])
    expected = next((code for base, code in DOCUMENTED_STATUS if issubclass(cls, base)), 1)
    assert status == cls.exit_status == expected
    # line breaks inside the message become spaces, so it stays one line
    assert err.getvalue().splitlines() == [f"bsar: {cls.kind}: {' '.join(message.splitlines())}"]
