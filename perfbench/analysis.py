"""Pure functions of the benchmark: percentiles, span self time, per-layer
metrics from a traced run, and the output checks. No I/O beyond reading the
files a caller names, so the tests can drive them directly."""

import math
import statistics

# The five layers the benchmark's spans name; together with the root span's
# self time (and the metrics snapshots) they make up the traced wall time.
NAMED_LAYERS = ("io.parse", "io.aggregate", "core.observe", "report.write",
                "checkpoint.save")

COMMUTE_BUILD_TIMERS = ("span.approx_commute_build",
                        "span.approx_commute_build_incremental",
                        "span.exact_commute_build",
                        "span.exact_commute_build_incremental")
PCG_TIMERS = ("span.pcg_solve_many", "span.pcg_solve_block", "span.pcg_solve")
FALLBACK_COUNTERS = ("commute.incremental_rebuild_churn",
                     "commute.incremental_rebuild_structure",
                     "commute.incremental_rebuild_breakdown")


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-quantile of n samples."""
    return n - math.ceil(q * n)


def percentile(values, q, min_beyond=10):
    """Nearest-rank q-quantile. Raises ValueError unless at least
    `min_beyond` samples lie beyond it (pass 0 for medians and maxima)."""
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    if samples_beyond(n, q) < min_beyond:
        raise ValueError(f"p{q * 100:g} of {n} samples leaves "
                         f"{samples_beyond(n, q)} beyond it, "
                         f"need {min_beyond}")
    return sorted(values)[max(0, math.ceil(q * n) - 1)]


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its children (the union of their intervals, clipped to it).
    `spans` is a list of dicts with id, start, end, parent."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0
        cursor = start
        for child in sorted(children.get(span["id"], []),
                            key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


def read_spans(path):
    spans = []
    with open(path) as f:
        next(f)
        for line in f:
            sid, name, start, end, parent, window = line.rstrip("\n").split(",")
            spans.append({"id": int(sid), "name": name, "start": int(start),
                          "end": int(end), "parent": int(parent),
                          "window": int(window)})
    return spans


def _sum(windows, group, names):
    return sum(w[group].get(name, 0) for w in windows for name in names)


def spmm_bytes(window):
    """Bytes one Laplacian SpMV touches per PCG iteration, computed from the
    window's n and nnz (= n + 2 * edges): CSR values (8 B) and column
    indices (4 B) per nonzero, row offsets (8 B per row + 1), the gathered
    input and the written output vector (8 B per row each)."""
    n = window["nodes"]
    nnz = n + 2 * window["edges"]
    return 12 * nnz + 24 * n + 8


def stream_layers(spans, windows):
    """Per-layer figures of one traced stream replay (or of several replays
    whose spans and windows were pooled). Returns (metrics, wall_s)."""
    selfs = self_times(spans)
    by_name = {}
    for span in spans:
        by_name[span["name"]] = by_name.get(span["name"], 0) + selfs[span["id"]]
    wall_ns = sum(s["end"] - s["start"] for s in spans if s["name"] == "run")
    observe_ms = [(s["end"] - s["start"]) / 1e6 for s in spans
                  if s["name"] == "core.observe"]
    t = lambda name: by_name.get(name, 0) / 1e9  # noqa: E731
    commute_s = _sum(windows, "timers_ns", COMMUTE_BUILD_TIMERS) / 1e9
    resolved = _sum(windows, "counters", ["commute.incremental_rhs_resolved"])
    reused = _sum(windows, "counters", ["commute.incremental_rhs_reused"])
    ic0_reuse = _sum(windows, "counters", ["commute.ic0_factor_reuses"])
    ic0_refactor = _sum(windows, "counters", ["commute.ic0_refactorizations"])
    metrics = {
        "io.parse_s": t("io.parse"),
        "io.aggregate_s": t("io.aggregate"),
        "commute.build_s": commute_s,
        "commute.builds_full": _sum(windows, "counters",
                                    ["commute.approx_builds",
                                     "commute.exact_builds"]),
        "commute.builds_incremental": _sum(windows, "counters",
                                           ["commute.incremental_builds"]),
        "commute.rebuild_fallbacks": _sum(windows, "counters",
                                          FALLBACK_COUNTERS),
        "commute.rhs_resolved": resolved,
        "commute.rhs_reuse_ratio": (reused / (reused + resolved)
                                    if reused + resolved else 0.0),
        "commute.ic0_reuse_ratio": (ic0_reuse / (ic0_reuse + ic0_refactor)
                                    if ic0_reuse + ic0_refactor else 0.0),
        "linalg.pcg_s": _sum(windows, "timers_ns", PCG_TIMERS) / 1e9,
        "linalg.pcg_iterations": _sum(windows, "counters", ["pcg.iterations"]),
        "linalg.pcg_solves": _sum(windows, "counters", ["pcg.solves"]),
        "linalg.precond_setup_s": _sum(windows, "timers_ns",
                                       ["span.pcg_precond_setup"]) / 1e9,
        "linalg.spmm_bytes_computed": sum(
            w["counters"].get("pcg.iterations", 0) * spmm_bytes(w)
            for w in windows),
        "core.observe_s": t("core.observe"),
        "core.observe_p50_ms": statistics.median(observe_ms),
        "core.observe_max_ms": max(observe_ms),
        "core.score_select_s": t("core.observe") - commute_s,
        "core.calibration_iterations": _sum(
            windows, "counters", ["threshold.calibration_iterations"]),
        "report.write_s": t("report.write"),
        "checkpoint.save_s": t("checkpoint.save"),
        "trace.layer_coverage": (sum(by_name.get(n, 0) for n in NAMED_LAYERS)
                                 / wall_ns if wall_ns else 0.0),
    }
    return metrics, wall_ns / 1e9


def ingest_chunk_ms(spans):
    """Time each event chunk spent in io: its io.parse span plus the
    io.aggregate spans that follow it until the next chunk is parsed."""
    chunks = []
    for span in sorted(spans, key=lambda s: s["start"]):
        if span["name"] == "io.parse":
            chunks.append(0)
        if span["name"] in ("io.parse", "io.aggregate") and chunks:
            chunks[-1] += span["end"] - span["start"]
    return [ns / 1e6 for ns in chunks]


def window_ms(spans):
    """Per window id: time in the spans tagged with that window (observe,
    report write, checkpoint save)."""
    totals = {}
    for span in spans:
        if span["window"] >= 0 and span["name"] != "trace.snapshot":
            totals[span["window"]] = (totals.get(span["window"], 0)
                                      + span["end"] - span["start"])
    return {w: ns / 1e6 for w, ns in totals.items()}


def layer_shares(metrics, wall_s):
    """Shares of traced wall time of the layer groups the predictions name."""
    commute = metrics["commute.build_s"]
    return {
        "io": (metrics["io.parse_s"] + metrics["io.aggregate_s"]) / wall_s,
        "commute": commute / wall_s,
        "linalg.pcg": metrics["linalg.pcg_s"] / wall_s,
        "core.score_select": metrics["core.score_select_s"] / wall_s,
        "report+checkpoint": (metrics["report.write_s"]
                              + metrics["checkpoint.save_s"]) / wall_s,
    }


def check_predictions(workload, shares, predictions):
    """Rows (layer, measured share, predicted bound, holds) for the
    predictions recorded for `workload`: ('>=', x) or ('<=', x)."""
    rows = []
    for layer, (op, bound) in predictions.get(workload, {}).items():
        share = shares[layer]
        holds = share >= bound if op == ">=" else share <= bound
        rows.append((layer, share, f"{op} {bound:g}", holds))
    return rows


def backlog_slope(times, values):
    """Least-squares slope of pending events over time (events/s)."""
    n = len(times)
    if n < 2:
        return 0.0
    mt, mv = sum(times) / n, sum(values) / n
    var = sum((t - mt) ** 2 for t in times)
    if var == 0:
        return 0.0
    return sum((t - mt) * (v - mv) for t, v in zip(times, values)) / var


# --- output checks ----------------------------------------------------------

def read_truth_edges(path):
    """Injected edges, as unordered pairs of node labels."""
    with open(path) as f:
        return {frozenset(line.split()) for line in f if line.strip()}


def reported_edges(csv_bytes, transitions):
    """Edges (unordered label pairs) named by the report rows of the given
    transitions, one entry per row."""
    edges = []
    lines = csv_bytes.decode().splitlines()
    if not lines or lines[0] != "transition,u,v,score,weight_delta,commute_delta":
        raise ValueError("report CSV has no header")
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 6:
            raise ValueError(f"malformed report row: {line!r}")
        if int(fields[0]) in transitions:
            edges.append(frozenset(fields[1:3]))
    return edges


def anomaly_precision(csv_bytes, transitions, truth_edges):
    """Share of the anomaly transitions' reported edges that are injected
    edges; 0 when those transitions report nothing."""
    reported = reported_edges(csv_bytes, transitions)
    if not reported:
        return 0.0
    return sum(1 for edge in reported if edge in truth_edges) / len(reported)


def stream_output_problems(csv_bytes, transitions, truth_edges, floor,
                           expected_bytes=None):
    """Empty list when a stream report passes its checks, else reasons."""
    problems = []
    try:
        precision = anomaly_precision(csv_bytes, transitions, truth_edges)
        if precision < floor:
            problems.append(f"anomaly precision {precision:.3f} below floor "
                            f"{floor}")
    except ValueError as e:
        problems.append(str(e))
    if expected_bytes is not None and csv_bytes != expected_bytes:
        problems.append("report CSV differs from the reference bytes")
    return problems
