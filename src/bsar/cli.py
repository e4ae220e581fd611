"""Command-line pipeline: simulate, estimate, focus, analyze, compare, render.

Exit statuses: 0 success, 2 parameter error, 3 format error, 4 unsuitable
scene, 5 convergence/tracking failure.  Every failure prints a single
machine-parsable line to stderr: ``bsar: <kind>: <message>``.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__, fileio
from .decompose import leading_triplets
from .errors import BsarError, ParameterError
from .estimate import CONSUMED_TRIPLETS, DEFAULT_DOMINANCE_GATE, DEFAULT_TAPER, blind_estimate
from .focus import FocusedImage, focus_pipeline
from .quality import analyze_point_target, compare_images
from .simulate import oracle_estimate, simulate_raw


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bsar", description="Blind SAR focusing toolkit"
    )
    parser.add_argument("--version", action="version", version=f"bsar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize raw data from a scene config")
    p.add_argument("--config", required=True, help="JSON config + scene document")
    p.add_argument("--out", required=True, help="output raw BSAR file")
    p.add_argument("--truth", help="optional ground-truth JSON sidecar")

    p = sub.add_parser("estimate", help="blind parameter extraction from raw data")
    p.add_argument("--in", dest="input", required=True, help="raw BSAR file")
    p.add_argument("--out", required=True, help="output estimate JSON")
    p.add_argument("--k", type=int, default=CONSUMED_TRIPLETS,
                   help="singular values listed by --spectrum; the estimate uses the first two")
    p.add_argument("--gate", type=float, default=DEFAULT_DOMINANCE_GATE,
                   help="sigma1/sigma2 dominance gate")
    p.add_argument("--taper", type=float, default=DEFAULT_TAPER,
                   help="reference taper fraction")
    p.add_argument("--seed", type=int, default=0, help="decomposition start seed")
    p.add_argument("--spectrum", help="optional singular-value CSV")

    p = sub.add_parser("focus", help="focus raw data with blind or oracle parameters")
    p.add_argument("--in", dest="input", required=True, help="raw BSAR file")
    p.add_argument("--est", help="estimate JSON from the estimate step")
    p.add_argument("--oracle", help="ground-truth JSON for oracle-mode focusing")
    p.add_argument("--out", required=True, help="output focused BSAR file")
    p.add_argument("--taper", type=float, help="override reference taper fraction")
    p.add_argument("--dump-stages", help="directory for per-stage BSAR dumps")

    p = sub.add_parser("analyze", help="point-target impulse-response metrics")
    p.add_argument("--in", dest="input", required=True, help="focused BSAR file")
    p.add_argument("--row", type=float, required=True)
    p.add_argument("--col", type=float, required=True)
    p.add_argument("--out", required=True, help="output CSV report")
    p.add_argument("--json", help="optional JSON report")
    p.add_argument("--window", type=int, default=64)

    p = sub.add_parser("compare", help="compare two focused images")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", required=True, help="output JSON summary")
    p.add_argument("--window", help="region as row0:row1,col0:col1")

    p = sub.add_parser("render", help="render magnitude as an 8-bit PGM")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--db", type=float, default=-40.0, help="dB floor (negative)")
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
    raw, _ = fileio.read_matrix(args.input)
    svd = leading_triplets(raw, k=min(args.k, min(raw.shape)), seed=args.seed)
    if args.spectrum:
        fileio.write_spectrum_csv(svd.singular_values, svd.dominance_ratio, args.spectrum)
    est = blind_estimate(raw, gate=args.gate, svd=svd)
    est.range_chirp = replace(est.range_chirp, taper_fraction=args.taper)
    est.azimuth_chirp = replace(est.azimuth_chirp, taper_fraction=args.taper)
    fileio.write_estimate(est, args.out, input_hash=fileio.sha256_file(args.input))
    return 0


def _cmd_focus(args):
    if bool(args.est) == bool(args.oracle):
        raise ParameterError("exactly one of --est or --oracle is required")
    raw, _ = fileio.read_matrix(args.input)

    on_stage = None
    if args.dump_stages:
        os.makedirs(args.dump_stages, exist_ok=True)

        def on_stage(name, result):
            data = result.image if isinstance(result, FocusedImage) else result
            if isinstance(data, np.ndarray) and data.ndim == 2:
                fileio.write_matrix(data, os.path.join(args.dump_stages, f"{name}.bsar"))

    if args.est:
        if not os.path.exists(args.est):
            raise ParameterError(f"--est file not found: {args.est}")
        est, _ = fileio.read_estimate(args.est)
        img = focus_pipeline(raw, est, taper_fraction=args.taper,
                             provenance="blind", on_stage=on_stage)
    else:
        if not os.path.exists(args.oracle):
            raise ParameterError(f"--oracle file not found: {args.oracle}")
        truth = fileio.read_truth(args.oracle)
        if truth.config is None:
            raise ParameterError("--oracle truth file lacks the config block")
        est, rcm = oracle_estimate(truth)
        img = focus_pipeline(raw, est, taper_fraction=args.taper, rcm_override=rcm,
                             provenance="oracle", on_stage=on_stage)
    fileio.write_matrix(img.image, args.out, flags=fileio.FLAG_FOCUSED)
    return 0


def _cmd_analyze(args):
    img, _ = fileio.read_matrix(args.input)
    report = analyze_point_target(img, (args.row, args.col), window=args.window)
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
    a, _ = fileio.read_matrix(args.a)
    b, _ = fileio.read_matrix(args.b)
    window = _parse_window(args.window) if args.window else None
    fileio.write_json(compare_images(a, b, window=window), args.out)
    return 0


def _cmd_render(args):
    img, _ = fileio.read_matrix(args.input)
    fileio.render_magnitude(img, args.db, args.out)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the parameter status
        return int(exc.code) if exc.code else 0
    try:
        return COMMANDS[args.command](args)
    except BsarError as exc:
        print(f"bsar: {exc.kind}: {exc}", file=sys.stderr)
        return exc.exit_status
    except FileNotFoundError as exc:
        print(f"bsar: parameter: file not found: {exc.filename}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
