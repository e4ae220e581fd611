"""Command-line pipeline: simulate, estimate, focus, analyze, compare, render.

Exit statuses: 0 success, 2 parameter error, 3 format error, 4 unsuitable
scene, 5 convergence/tracking failure.  Every failure prints one line to
stderr, ``bsar: <kind>: <message>``, with line breaks in the message as spaces.
"""

import argparse
import errno
import os
import sys

import numpy as np

from . import __version__, fileio
from .decompose import leading_triplets
from .errors import BsarError, ParameterError
from .estimate import CONSUMED_TRIPLETS, DOMINANCE_GATE, blind_estimate
from .focus import focus_pipeline
from .quality import ANALYSIS_WINDOW, analyze_point_target, compare_images
from .simulate import oracle_estimate, simulate_raw


class _Parser(argparse.ArgumentParser):
    """A usage error is a parameter error, reported on the one error line;
    the subcommand parsers are of this class too."""

    def error(self, message):
        raise ParameterError(message)


def build_parser():
    parser = _Parser(prog="bsar", description="Blind SAR focusing toolkit")
    parser.add_argument("--version", action="version", version=f"bsar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize raw data from a scene config")
    p.add_argument("--config", required=True, help="JSON config + scene document")
    p.add_argument("--out", required=True, help="output raw BSAR file")
    p.add_argument("--truth", help="optional ground-truth JSON sidecar")

    p = sub.add_parser("estimate", help="blind parameter extraction from raw data")
    p.add_argument("--in", dest="input", required=True, help="raw BSAR file")
    p.add_argument("--out", required=True, help="output estimate JSON")
    p.add_argument("--spectrum", help="optional CSV of sigma1, sigma2 and their ratio")

    p = sub.add_parser("focus", help="focus raw data with blind or oracle parameters")
    p.add_argument("--in", dest="input", required=True, help="raw BSAR file")
    p.add_argument("--est", help="estimate JSON from the estimate step")
    p.add_argument("--oracle", help="ground-truth JSON for oracle-mode focusing")
    p.add_argument("--out", required=True, help="output focused BSAR file")

    p = sub.add_parser("analyze", help="point-target impulse-response metrics")
    p.add_argument("--in", dest="input", required=True, help="focused BSAR file")
    p.add_argument("--row", type=float, required=True)
    p.add_argument("--col", type=float, required=True)
    p.add_argument("--out", required=True, help="output CSV report")
    p.add_argument("--json", help="optional JSON report")

    p = sub.add_parser("compare", help="compare two focused images")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", required=True, help="output JSON summary")
    p.add_argument("--window", help="region as row0:row1,col0:col1")

    p = sub.add_parser("render", help="render magnitude as an 8-bit PGM")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True, help="output PGM file")
    return parser


def _cmd_simulate(args):
    config, scene = fileio.load_scene(args.config)
    raw, truth = simulate_raw(config, scene)
    fileio.write_matrix(raw, args.out, flags=0)
    if args.truth:
        fileio.write_json(truth, args.truth)
    return 0


def _cmd_estimate(args):
    # decomposed in the file's precision; a focused image's estimate would be garbage
    raw, flags = fileio.read_matrix(args.input, focused=False)
    # the min leaves a matrix under 2 x 2 for blind_estimate to refuse
    svd = leading_triplets(raw, k=min(CONSUMED_TRIPLETS, *raw.shape), gate=DOMINANCE_GATE)
    est = blind_estimate(raw, svd=svd)  # a refused scene writes no file
    if args.spectrum:
        fileio.write_spectrum_csv(svd.singular_values, svd.dominance_ratio, args.spectrum)
    decomposition = {"gate": DOMINANCE_GATE, "products": svd.products, "precision": raw.dtype.name}
    fileio.write_estimate(est, args.out, input_hash=fileio.sha256_matrix(raw, flags),
                          decomposition=decomposition)
    return 0


def _cmd_focus(args):
    if bool(args.est) == bool(args.oracle):
        raise ParameterError("exactly one of --est or --oracle is required")
    # a malformed or focused file is refused on opening, before any pass; pass
    # 1 then reads the payload a row block at a time, never resident whole
    with fileio.MatrixReader(args.input, focused=False) as reader:
        if args.est:
            est, rcm = fileio.read_estimate(args.est), None
        else:
            truth = fileio.read_truth(args.oracle)
            if truth.config is None:
                raise ParameterError("--oracle truth file lacks the config block")
            est, rcm = oracle_estimate(truth)
        img = focus_pipeline(reader, est, rcm_override=rcm).image
    fileio.write_matrix(img, args.out, flags=fileio.FLAG_FOCUSED)
    return 0


def _cmd_analyze(args):
    row, half = args.row, ANALYSIS_WINDOW // 2
    # the window's rows, if the position is finite; any other case is refused below
    keep = (0, 0) if not np.isfinite(row) else (round(row) - half, round(row) + half)
    img = fileio.read_matrix(args.input, keep=keep, focused=True)[0]
    report = analyze_point_target(img, (args.row, args.col))
    fileio.write_report_csv(report, args.out)
    if args.json:
        fileio.write_json(report, args.json)
    return 0


def _parse_window(text):
    try:
        rows, cols = text.split(",")
        r0, r1 = (int(v) for v in rows.split(":"))
        c0, c1 = (int(v) for v in cols.split(":"))
        return r0, r1, c0, c1
    except ValueError:
        raise ParameterError(f"bad --window {text!r}, expected row0:row1,col0:col1")


def _cmd_compare(args):
    window = _parse_window(args.window) if args.window else None
    keep = window and window[:2]  # the window's rows; every row is still scanned
    a, b = (fileio.read_matrix(path, keep=keep, focused=True)[0] for path in (args.a, args.b))
    fileio.write_json(compare_images(a, b, window=window), args.out)
    return 0


def _cmd_render(args):
    with fileio.MatrixReader(args.input) as reader:  # either kind, in row blocks, twice
        fileio.render_magnitude(reader, args.out)
    return 0


COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "focus": _cmd_focus,
    "analyze": _cmd_analyze,
    "compare": _cmd_compare,
    "render": _cmd_render,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        # each output path fails before any input is read, as writing it would
        for path in filter(None, map(vars(args).get, ("out", "truth", "spectrum", "json"))):
            code = errno.EISDIR if os.path.isdir(path) else errno.ENOENT
            if code == errno.EISDIR or not os.path.isdir(os.path.dirname(path) or "."):
                raise OSError(code, os.strerror(code), path)
        return COMMANDS[args.command](args)
    except SystemExit as exc:  # only --help and --version exit, with status 0
        return exc.code
    except BsarError as exc:
        print(f"bsar: {exc.kind}: {' '.join(str(exc).splitlines())}", file=sys.stderr)
        return exc.exit_status
    except OSError as exc:  # a missing file, a directory, a path not permitted
        reason = "file not found" if isinstance(exc, FileNotFoundError) else exc.strerror
        print(f"bsar: parameter: {reason}: {exc.filename}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
