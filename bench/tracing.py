"""Spans around calls into the ``bsar`` modules, recorded from outside.

``Tracer.install`` replaces public functions where the package looks them
up (for example ``bsar.estimate.leading_triplets``, which ``blind_estimate``
calls through its module globals) with wrappers that record a span: name,
start, end, parent span and operation id.  Spans stay in memory until the
run ends.  Nothing under ``src/`` changes; sweep counts inside
``leading_triplets`` cannot be seen from here.

Run as a script, this file is a drop-in for ``python -m bsar.cli``: it
installs the tracer, runs the command and writes the spans as JSON to the
path given first:

    python3 bench/tracing.py SPANS.json simulate --config c.json --out raw.bsar
"""

import json
import statistics
import sys
import time
import tracemalloc
from functools import wraps

MIB = float(1 << 20)

# (module, attribute, span name); attributes in bsar.cli are the names the
# CLI imported, so they are wrapped separately from their home modules
TRACED = (
    ("bsar.simulate", "simulate_raw", "simulate.simulate_raw"),
    ("bsar.estimate", "leading_triplets", "decompose.leading_triplets"),
    ("bsar.estimate", "blind_estimate", "estimate.blind_estimate"),
    ("bsar.estimate", "estimate_range", "estimate.estimate_range"),
    ("bsar.estimate", "estimate_azimuth", "estimate.estimate_azimuth"),
    ("bsar.focus", "focus_pipeline", "focus.focus_pipeline"),
    ("bsar.focus", "build_references", "focus.build_references"),
    ("bsar.focus", "range_compress", "focus.range_compress"),
    ("bsar.focus", "track_rcm", "focus.track_rcm"),
    ("bsar.focus", "rcmc", "focus.rcmc"),
    ("bsar.focus", "azimuth_compress", "focus.azimuth_compress"),
    ("bsar.quality", "analyze_point_target", "quality.analyze_point_target"),
    ("bsar.fileio", "read_matrix", "fileio.read_matrix"),
    ("bsar.fileio", "write_matrix", "fileio.write_matrix"),
)
TRACED_CLI = (
    ("bsar.cli", "simulate_raw", "simulate.simulate_raw"),
    ("bsar.cli", "leading_triplets", "decompose.leading_triplets"),
    ("bsar.cli", "blind_estimate", "estimate.blind_estimate"),
    ("bsar.cli", "focus_pipeline", "focus.focus_pipeline"),
    ("bsar.cli", "analyze_point_target", "quality.analyze_point_target"),
)


def _matrix_mib(shape):
    rows, cols = shape
    return rows * cols * 8 / MIB  # float32 I/Q pairs on disk


def _attributes(name, args, kwargs, result):
    """Counts recorded at the layer boundary."""
    if name == "decompose.leading_triplets":
        return {"k": int(kwargs["k"] if "k" in kwargs else args[1])}
    if name == "fileio.read_matrix":
        return {"mib": _matrix_mib(result[0].shape)}
    if name == "fileio.write_matrix":
        return {"mib": _matrix_mib(args[0].shape)}
    return {}


class Tracer:
    """In-memory span recorder; `op` tags spans with the current operation."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = "setup"

    def install(self, targets=TRACED):
        for module_name, attr, name in targets:
            module = sys.modules[module_name]
            setattr(module, attr, self._wrap(getattr(module, attr), name))

    def _wrap(self, fn, name):
        measure_alloc = name == "focus.focus_pipeline"

        @wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "op": self.op,
                    "parent": self.stack[-1] if self.stack else None}
            index = len(self.spans)
            self.spans.append(span)
            self.stack.append(index)
            if measure_alloc:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
                if measure_alloc:
                    span["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / MIB
                    tracemalloc.stop()
            span.update(_attributes(name, args, kwargs, result))
            return result

        return traced

    def extend(self, spans, op):
        """Append spans recorded in another process under operation `op`."""
        offset = len(self.spans)
        for span in spans:
            span = dict(span, op=op)
            if span["parent"] is not None:
                span["parent"] += offset
            self.spans.append(span)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_time(spans, index):
    """Duration of span `index` minus the time its child spans cover."""
    span = spans[index]
    children = sorted((s["start"], s["end"]) for s in spans if s["parent"] == index)
    covered, reach = 0.0, span["start"]
    for start, end in children:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return span["end"] - span["start"] - covered


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, ops):
    """Per-layer metrics from spans: medians over operations `ops`.

    Times are the per-operation total spent in a layer; the blind estimate
    is reported as self time.  simulate_raw is the median of single calls,
    wherever they ran (set-up for in-process workloads).
    """
    per_op = {op: {} for op in ops}
    ks, simulate = [], []
    for i, span in enumerate(spans):
        name = span["name"]
        if name == "simulate.simulate_raw":
            simulate.append(span["end"] - span["start"])
        if span["op"] not in per_op:
            continue
        acc = per_op[span["op"]]
        if name == "estimate.blind_estimate":
            value = self_time(spans, i)
        else:
            value = span["end"] - span["start"]
        acc[name] = acc.get(name, 0.0) + value
        if name == "decompose.leading_triplets":
            acc["decompose.calls"] = acc.get("decompose.calls", 0) + 1
            ks.append(span["k"])
        if "mib" in span:
            acc["fileio.mb_moved"] = acc.get("fileio.mb_moved", 0.0) + span["mib"]
        if "peak_alloc_mb" in span:
            acc["focus.peak_alloc_mb"] = max(acc.get("focus.peak_alloc_mb", 0.0),
                                             span["peak_alloc_mb"])

    def over_ops(key):
        return _median([acc.get(key, 0.0) for acc in per_op.values()])

    metrics = {
        "simulate.simulate_raw_s": (_median(simulate), "s"),
        "decompose.leading_triplets_s": (over_ops("decompose.leading_triplets"), "s"),
        "decompose.calls": (over_ops("decompose.calls"), "1"),
        "decompose.k": (_median(ks), "1"),
        "estimate.blind_estimate_self_s": (over_ops("estimate.blind_estimate"), "s"),
        "estimate.estimate_range_s": (over_ops("estimate.estimate_range"), "s"),
        "estimate.estimate_azimuth_s": (over_ops("estimate.estimate_azimuth"), "s"),
        "focus.peak_alloc_mb": (over_ops("focus.peak_alloc_mb"), "MiB"),
        "quality.analyze_point_target_s": (over_ops("quality.analyze_point_target"), "s"),
        "fileio.read_matrix_s": (over_ops("fileio.read_matrix"), "s"),
        "fileio.write_matrix_s": (over_ops("fileio.write_matrix"), "s"),
        "fileio.mb_moved": (over_ops("fileio.mb_moved"), "MiB"),
    }
    for stage in ("build_references", "range_compress", "track_rcm", "rcmc", "azimuth_compress"):
        metrics[f"focus.{stage}_s"] = (over_ops(f"focus.{stage}"), "s")
    return metrics


def import_times(stderr_text):
    """(bsar.cli, scipy.stats) cumulative import seconds from -X importtime."""
    found = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            found.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return found.get("bsar.cli", 0.0), found.get("scipy.stats", 0.0)


def main(argv):
    """Run one bsar command under the tracer; spans go to argv[0]."""
    spans_path, command = argv[0], argv[1:]
    import bsar.cli

    tracer = Tracer()
    tracer.install(TRACED + TRACED_CLI)
    try:
        return bsar.cli.main(command)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
