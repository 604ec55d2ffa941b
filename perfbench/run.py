#!/usr/bin/env python3
"""Benchmark of the CAD streaming front-ends (cad_stream, cad_server).

    python3 perfbench/run.py --workload stream_incremental --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The first run builds the binaries under test
and the benchmark's programs into .bench_build/ (CMake, Release). Inputs are
generated from the seed before anything is timed and cached by (workload,
seed). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run. See
perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import analysis  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# Metric names and units are read from BENCHMARK.json, one directory up.
SPEC = os.path.join(BENCH_DIR, "..", "BENCHMARK.json")
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
INPUTS = os.path.join(ROOT, ".bench_build", "inputs")
WORK = os.path.join(ROOT, ".bench_build", "work")
TOOLS = os.path.join(BUILD, "tools")
BIN = os.path.join(BUILD, "bin")

NPROC = 4
# Read-bandwidth array: at least 4 x the 300 MiB LLC of the 4-core Xeon the
# baselines were measured on, so the sweep streams from DRAM.
MEMBW_MIB = 1280
# Server set-up (tens of milliseconds, noisy) is timed this many times plus
# once for the measured run, and reported as the median. A stream run times
# each stream's set-up STREAM_SETUP_REPEATS times and reports the mean over
# streams of each stream's median.
SERVER_SETUP_REPEATS = 40
STREAM_SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120

WORKLOADS = {
    # Low churn, one burst: calm windows re-solve almost no columns, so io,
    # scoring, snapshot copies and checkpoint writes dominate; single thread.
    "stream_incremental": {
        "kind": "stream",
        "gen": ["--num_nodes", "10000", "--edges_per_node", "10",
                "--windows", "6", "--rewire", "0.001",
                "--anomaly_fraction", "0.01"],
        "num_nodes": 10000,
        "flags": ["--engine", "approx", "--incremental", "--threads", "1"],
        "checkpoint_every": 2,
        # Share of the burst transition's reported edges that are injected
        # edges. A random pick among the transition's changed edges scores
        # 0.45 on average; the reports measured 0.75-1.0 (README).
        "precision_floor": 0.6,
        "streams": 3,
    },
    # Every window an independent raw R-MAT sample: each window is a cold
    # build of k PCG solves, so commute/linalg dominate.
    "stream_rebuild": {
        "kind": "stream",
        "gen": ["--num_nodes", "4000", "--edges_per_node", "10",
                "--windows", "8", "--burst_edges", "100",
                "--burst_weight", "6"],
        "num_nodes": 4000,
        "flags": ["--engine", "approx", "--threads", "2"],
        "checkpoint_every": 4,
        # Nearly every edge changes between independent samples, so a random
        # pick scores about 0; the reports measured 1.0 (README).
        "precision_floor": 0.5,
        "streams": 3,
    },
    # Tens of small org-style tenants, open loop at about half the measured
    # capacity: protocol, queueing, scheduling, report writes and checkpoint
    # fsyncs dominate.
    "server_fleet": {
        "kind": "server",
        "gen": ["--employees", "150", "--windows", "48"],
        # Tenant count is set from --seconds so that the offered schedule
        # lasts about that long (see tenant_count).
        "events_per_tenant": 20600,
        "min_tenants": 24,
        "monitor_flags": ["--engine", "approx", "--k", "25", "--warm_start"],
        "server_flags": ["--window", "1", "--checkpoint_every", "8",
                         "--workers", str(NPROC - 1)],
        "rate": 58000,
        "batch": 64,
        "poll_us": 250,
        "fleet_poll_ms": 50,
        "limit_ms": 50,
        "traced_tenants": 8,
    },
}

# Layer share predictions checked by the traced run: (op, bound) per layer
# group, as shares of traced wall time.
PREDICTIONS = {
    "stream_incremental": {"io": (">=", 0.10),
                           "core.score_select": (">=", 0.10)},
    "stream_rebuild": {"commute": (">=", 0.50), "io": ("<=", 0.05)},
    "server_fleet": {"report+checkpoint": (">=", 0.05)},
}

def metric_units(group):
    """{name: unit} of BENCHMARK.json's "end_to_end" or "per_layer" list."""
    with open(SPEC) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[group]}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class Tally:
    """Operations attempted and failed over the run; failures are kept with
    their reasons and printed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems, what):
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                log(f"FAILED {what}: {problem}")


# --- build and inputs --------------------------------------------------------

def build():
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(NPROC), "--target",
                    "cad_stream", "cad_server", "pb_gen", "pb_stream",
                    "pb_fleet"], check=True, stdout=sys.stderr)


def tenant_count(seconds):
    """Tenants whose streams, offered at the fixed rate, last about
    `seconds`; never fewer than min_tenants, which keeps >= 10 window
    samples beyond the p99."""
    cfg = WORKLOADS["server_fleet"]
    return max(cfg["min_tenants"],
               round(seconds * cfg["rate"] / cfg["events_per_tenant"]))


def generate(workload, seed, out_dir, extra=()):
    """Writes the workload's inputs for `seed` into out_dir (pb_gen)."""
    os.makedirs(out_dir, exist_ok=True)
    subprocess.run([os.path.join(BIN, "pb_gen"), "--workload", workload,
                    "--seed", str(seed), "--out", out_dir]
                   + WORKLOADS[workload]["gen"] + list(extra), check=True,
                   stdout=sys.stderr)


def write_references(pairs, flags, list_path):
    """Replays each (events, report) pair untraced in process (pb_stream
    --list) with the monitor flags under test; the reports are what every
    timed run must reproduce byte for byte."""
    threads = int(flags[flags.index("--threads") + 1]) \
        if "--threads" in flags else 1
    with open(list_path, "w") as f:
        for events, report in pairs:
            f.write(f"{events} {report}\n")
    subprocess.run([os.path.join(BIN, "pb_stream"), "--list", list_path,
                    "--jobs", str(max(1, min(len(pairs), NPROC // threads)))]
                   + flags, check=True)


def inputs(workload, seed, tenants=0):
    """Cached inputs and reference reports for (workload, seed, tenants);
    made outside any timed section."""
    cfg = WORKLOADS[workload]
    name = f"{workload}-{seed}" + (f"-{tenants}" if tenants else "")
    final = os.path.join(INPUTS, name)
    if os.path.exists(os.path.join(final, "done")):
        return final
    staging = final + f".tmp{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    if cfg["kind"] == "stream":
        pairs = []
        for i in range(cfg["streams"]):
            stream_dir = os.path.join(staging, f"s{i}")
            generate(workload, seed * 1000 + i, stream_dir)
            pairs.append((os.path.join(stream_dir, "events.txt"),
                          os.path.join(stream_dir, "reference.csv")))
        flags = ["--window", "1", "--num_nodes",
                 str(cfg["num_nodes"])] + cfg["flags"]
    else:
        generate(workload, seed, staging, ["--tenants", str(tenants)])
        ref = os.path.join(staging, "reference")
        os.makedirs(ref)
        pairs = [(f"{staging}/tenant_{i:03d}.txt", f"{ref}/t{i:03d}.csv")
                 for i in range(tenants)]
        flags = cfg["monitor_flags"]
    write_references(pairs, flags, os.path.join(staging, "references.txt"))
    # Written-back now, so that no timed run shares the disk with the
    # write-back of freshly generated inputs.
    for dirpath, _, files in os.walk(staging):
        for name in files:
            fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
            os.fsync(fd)
            os.close(fd)
    open(os.path.join(staging, "done"), "w").close()
    shutil.rmtree(final, ignore_errors=True)
    os.rename(staging, final)
    return final


# --- child processes ---------------------------------------------------------

def spawn(argv, cwd=None):
    # stderr goes to an unlinked temporary file, not a pipe, so a chatty
    # child can never block on a full pipe while reap() polls.
    err = tempfile.TemporaryFile(dir=WORK)
    proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.DEVNULL,
                            stderr=err)
    proc.err_file = err
    return proc


def reap(proc, timeout_s=CHILD_TIMEOUT_S, expected=0):
    """Waits for proc with wait4; returns (exit code, cpu s, rss MB). An exit
    code other than `expected` is logged with the child's stderr."""
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, ru = os.wait4(proc.pid, 0)
            proc.returncode = -1
            break
        time.sleep(0.002)
    if proc.returncode != expected:
        proc.err_file.seek(0)
        err = proc.err_file.read().decode(errors="replace")
        log(f"child {proc.args[0]} exited {proc.returncode}: {err[-400:]}")
    proc.err_file.close()
    return proc.returncode, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def timed(argv, cwd=None):
    """Runs argv; returns (exit code, wall s, cpu s, rss MB)."""
    start = time.monotonic()
    proc = spawn(argv, cwd)
    code, cpu, rss = reap(proc)
    return code, time.monotonic() - start, cpu, rss


# --- stream workloads --------------------------------------------------------

def stream_args(workload, stream, work, output, checkpoint=True):
    cfg = WORKLOADS[workload]
    argv = ["--events", os.path.join(stream["dir"], "events.txt"),
            "--window", "1", "--num_nodes", str(cfg["num_nodes"]),
            "--output", output]
    argv += cfg["flags"]
    if checkpoint:
        argv += ["--checkpoint", os.path.join(work, "ck.bin"),
                 "--checkpoint_every", str(cfg["checkpoint_every"])]
    return argv


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def load_streams(workload, data):
    streams = []
    for i in range(WORKLOADS[workload]["streams"]):
        stream_dir = os.path.join(data, f"s{i}")
        with open(os.path.join(stream_dir, "meta.json")) as f:
            meta = json.load(f)
        streams.append({
            "dir": stream_dir, "meta": meta,
            "reference": read_bytes(os.path.join(stream_dir,
                                                 "reference.csv")),
            "truth": analysis.read_truth_edges(
                os.path.join(stream_dir, "truth.txt"))})
    return streams


def stream_run(workload, data, work, seconds, trace, tally):
    """Replays the workload's streams round-robin for `seconds`. Figures are
    taken per stream (median over its replays) and averaged over streams,
    so one stream's peculiar burst does not set the run's number."""
    cfg = WORKLOADS[workload]
    streams = load_streams(workload, data)
    cad_stream = os.path.join(TOOLS, "cad_stream")

    def check(stream, csv_path, what):
        """Every report of a stream, traced or not, must localize the
        injected edges and equal the reference made at set-up."""
        problems = analysis.stream_output_problems(
            read_bytes(csv_path), stream["meta"]["anomaly_transitions"],
            stream["truth"], cfg["precision_floor"], stream["reference"])
        tally.record(problems, what)
        return not problems

    def replay(stream, program, run_dir, extra=()):
        """One timed replay by `program`: (wall s, cpu s, rss MB), or None if
        it failed. A replay whose output fails a check is still timed, and
        counted as failed."""
        out = os.path.join(run_dir, "report.csv")
        code, wall, cpu, rss = timed(
            [program] + stream_args(workload, stream, run_dir, out)
            + list(extra))
        what = os.path.basename(program) + (" traced" if extra else "")
        if code != 0:
            tally.record([f"exit {code}"], what)
            return None
        check(stream, out, what)
        return wall, cpu, rss

    if not trace:
        setups = [[] for _ in streams]
        for _ in range(STREAM_SETUP_REPEATS):
            for stream, stream_setups in zip(streams, setups):
                code, wall, _, _ = timed(
                    [cad_stream] + stream_args(workload, stream, work,
                                               os.devnull, checkpoint=False)
                    + ["--max_snapshots", "1"])
                tally.record([] if code == 0 else [f"exit {code}"],
                             "cad_stream set-up")
                stream_setups.append(wall)
        setup_s = statistics.mean(map(statistics.median, setups))
        runs = [[] for _ in streams]
        deadline = time.monotonic() + seconds
        for attempt in range(1000):
            if time.monotonic() >= deadline and all(runs):
                break
            if attempt >= 3 * len(streams) and not all(runs):
                raise RuntimeError("a stream has no successful cad_stream run")
            stream = streams[attempt % len(streams)]
            measured = replay(stream, cad_stream, work)
            if measured:
                runs[attempt % len(streams)].append(measured)

        def per_stream(value):
            return statistics.mean(
                statistics.median(value(stream["meta"], *run)
                                  for run in stream_runs)
                for stream, stream_runs in zip(streams, runs))

        log(f"{workload}: {sum(map(len, runs))} runs over {len(streams)} "
            f"streams, set-up {setup_s:.3f} s")
        return {
            "setup_s": setup_s,
            "events_per_s": per_stream(lambda m, w, c, r: m["events"] / w),
            "cpu_ms_per_kevent": per_stream(
                lambda m, w, c, r: c * 1e3 / (m["events"] / 1e3)),
            "peak_rss_mb": per_stream(lambda m, w, c, r: r),
            # One mean window time per replay: stream windows are not
            # individually observable without tracing.
            "window_p50_ms": per_stream(
                lambda m, w, c, r: w / m["windows"] * 1e3),
        }

    # Traced: pairs of an untraced and a traced pb_stream replay of the same
    # stream, for --seconds and until the pooled ingest chunks support a p99.
    # Both are timed as whole processes of the same program, so their ratio
    # is the tracing overhead. cad_stream's reports are tied to pb_stream's
    # through the reference that both must equal.
    pb_stream = os.path.join(BIN, "pb_stream")
    membw = measure_membw()
    ratios, traced, chunks = [], [], 0
    deadline = time.monotonic() + seconds
    for attempt in range(1000):
        if time.monotonic() >= deadline and chunks >= 1000:
            break
        if attempt >= 3 and not traced:
            raise RuntimeError("no successful traced run")
        stream = streams[attempt % len(streams)]
        run_dir = os.path.join(work, f"trace{attempt}")
        os.makedirs(run_dir)
        untraced = replay(stream, pb_stream, run_dir)
        traced_run = replay(stream, pb_stream, run_dir, [
            "--spans", os.path.join(run_dir, "spans.csv"),
            "--windows_json", os.path.join(run_dir, "windows.json")])
        if not (untraced and traced_run):
            continue
        layers = traced_layers(run_dir)
        traced.append(layers)
        ratios.append(traced_run[0] / untraced[0])
        chunks += len(analysis.ingest_chunk_ms(layers[3]))
    metrics = {name: statistics.median(run[0][name] for run in traced)
               for name in traced[0][0]}
    traced_wall = statistics.median(run[1] for run in traced)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    metrics["host.mem_bw_gbps"] = membw
    saves = [b for run in traced for b in run[2]["checkpoint_bytes"]]
    # Stand-in for the kEvents hand-off: in-process ingest of one chunk,
    # pooled over the traced replays.
    rtt = [ms for run in traced for ms in analysis.ingest_chunk_ms(run[3])]
    metrics.update(zero_server_layers())
    metrics.update({
        "report.rows": statistics.median(
            len(s["reference"].splitlines()) - 1 for s in streams),
        "checkpoint.saves": statistics.median(
            len(run[2]["checkpoint_bytes"]) for run in traced),
        "checkpoint.bytes_per_save": statistics.mean(saves),
        "checkpoint.bytes_per_tenant": statistics.median(
            run[2]["checkpoint_bytes"][-1] for run in traced),
        "tenant.cache_bytes": statistics.median(
            run[2]["cache_bytes"] for run in traced),
        "tenant.observe_p99_ms": metrics["core.observe_max_ms"],
        # A stream has too few windows for a p99: the slowest window's
        # observe + report + checkpoint time, over the traced replays.
        "fleet.window_p99_ms": max(
            ms for run in traced
            for ms in analysis.window_ms(run[3]).values()),
        "protocol.events_rtt_p50_ms": statistics.median(rtt),
        "protocol.events_rtt_p99_ms": analysis.percentile(rtt, 0.99),
    })
    print_predictions(workload, metrics, traced_wall)
    return metrics


def measure_membw():
    """Single-thread read bandwidth (GB/s) over a MEMBW_MIB array, in a
    process of its own so that no timed run includes it."""
    out = subprocess.run([os.path.join(BIN, "pb_stream"), "--membw_mib",
                          str(MEMBW_MIB)], check=True, capture_output=True,
                         text=True)
    return float(out.stdout)


def traced_layers(run_dir):
    spans = analysis.read_spans(os.path.join(run_dir, "spans.csv"))
    with open(os.path.join(run_dir, "windows.json")) as f:
        windows = json.load(f)
    metrics, wall = analysis.stream_layers(spans, windows["windows"])
    return metrics, wall, windows, spans


def zero_server_layers():
    """Server-only counts and ratios, which a stream workload does not
    exercise."""
    return {"fleet.pending_events_max": 0, "fleet.backlog_slope": 0.0,
            "client.late_send_frac": 0.0, "fleet.late_frac": 0.0,
            "fleet.rejected_frac": 0.0}


def print_predictions(workload, metrics, wall_s):
    shares = analysis.layer_shares(metrics, wall_s)
    log(f"layer shares of traced wall ({workload}, {wall_s:.3f} s):")
    for layer, share in shares.items():
        log(f"  {layer:20s} {share:7.1%}")
    log(f"  named-layer coverage {metrics['trace.layer_coverage']:.1%}")
    for layer, share, bound, holds in analysis.check_predictions(
            workload, shares, PREDICTIONS):
        log(f"  prediction {layer} {bound}: measured {share:.3f} -> "
            f"{'holds' if holds else 'DOES NOT HOLD'}")


# --- server workload ---------------------------------------------------------

def tenants_of(data):
    with open(os.path.join(data, "meta.json")) as f:
        return json.load(f)["tenants"]


def server_once(data, work, setup_only, tally):
    """Spawns cad_server in a fresh data dir, drives it with pb_fleet, stops
    it with SIGTERM (graceful drain), or SIGKILL after a set-up-only run.
    Returns (fleet results, cpu s, rss MB, data dir)."""
    cfg = WORKLOADS["server_fleet"]
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # Relative socket path: cwd keeps it short whatever the checkout path.
    server_argv = [os.path.join(TOOLS, "cad_server"), "--socket", "s.sock",
                   "--data_dir", "data"] + cfg["monitor_flags"] + \
        cfg["server_flags"]
    client_argv = [os.path.join(BIN, "pb_fleet"), "--socket", "s.sock",
                   "--out", "fleet.json", "--tenants", str(tenants_of(data))]
    if setup_only:
        client_argv.append("--setup_only")
    else:
        client_argv += ["--dir", data, "--rate", str(cfg["rate"]),
                        "--batch", str(cfg["batch"]),
                        "--poll_us", str(cfg["poll_us"]),
                        "--fleet_poll_ms", str(cfg["fleet_poll_ms"])]
    t0 = time.monotonic_ns()
    server = spawn(server_argv, cwd=work)
    client = None
    try:
        client = spawn(client_argv + ["--t0_ns", str(t0)], cwd=work)
        client_code, _, _ = reap(client)
    finally:
        if client is not None and client.returncode is None:
            client.kill()
            reap(client)
        # A set-up-only server has received no events, so there is nothing to
        # drain. Killing it spares the disk the drain's checkpoint fsyncs for
        # every tenant, which otherwise slow the set-ups and the run after.
        server.send_signal(signal.SIGKILL if setup_only else signal.SIGTERM)
        expected = -signal.SIGKILL if setup_only else 0
        server_code, cpu, rss = reap(server, expected=expected)
    tally.record([] if client_code == 0 else [f"client exit {client_code}"],
                 "pb_fleet")
    tally.record([] if server_code == expected
                 else [f"server exit {server_code}"], "cad_server")
    if client_code != 0:
        raise RuntimeError("pb_fleet failed")
    with open(os.path.join(work, "fleet.json")) as f:
        results = json.load(f)
    return results, cpu, rss, os.path.join(work, "data")


def server_checks(data, data_dir, results, tally):
    cfg = WORKLOADS["server_fleet"]
    tally.attempted += results["requests"]
    tally.failed += results["errors"]
    for i in range(tenants_of(data)):
        got = os.path.join(data_dir, f"t{i:03d}.csv")
        want = read_bytes(os.path.join(data, "reference", f"t{i:03d}.csv"))
        problems = []
        if not os.path.exists(got):
            problems.append("no report CSV")
        elif read_bytes(got) != want:
            problems.append("report CSV differs from the in-process reference")
        tally.record(problems, f"tenant t{i:03d}")
    if results["failed_tenants"]:
        tally.record([f"{results['failed_tenants']} tenants failed"],
                     "fleet")


def server_run(data, work, seconds, trace, tally):
    cfg = WORKLOADS["server_fleet"]
    setups = []
    if not trace:
        for _ in range(SERVER_SETUP_REPEATS):
            results, _, _, _ = server_once(
                data, os.path.join(work, "setup"), True, tally)
            setups.append(results["setup_s"])
    results, cpu, rss, data_dir = server_once(
        data, os.path.join(work, "fleet"), False, tally)
    setups.append(results["setup_s"])
    server_checks(data, data_dir, results, tally)
    events = results["events"]
    latency = results["window_latency_ms"]
    late = sum(1 for lat, forced in zip(latency,
                                        results["window_forced_late"])
               if forced or lat < 0 or lat > cfg["limit_ms"])
    log(f"server_fleet: {events} events in {results['run_s']:.2f} s, "
        f"{len(latency)} window samples, {results['requests']} kEvents, "
        f"{results['rejections']} rejected, {late} late windows, send lag "
        f"p99 {analysis.percentile(results['send_lag_ms'], 0.99):.3f} ms")
    if not trace:
        return {
            "setup_s": statistics.median(setups),
            "events_per_s": events / results["run_s"],
            "cpu_ms_per_kevent": cpu * 1e3 / (events / 1e3),
            "peak_rss_mb": rss,
            "window_p50_ms": statistics.median(latency),
        }
    sizes = [os.path.getsize(os.path.join(data_dir, name))
             for name in os.listdir(data_dir) if name.endswith(".ckpt")]
    metrics = {
        "protocol.events_rtt_p50_ms": statistics.median(results["rtt_ms"]),
        "protocol.events_rtt_p99_ms": analysis.percentile(results["rtt_ms"],
                                                          0.99),
        "fleet.pending_events_max": max(results["pending_events"]),
        "fleet.backlog_slope": analysis.backlog_slope(
            results["pending_t_s"], results["pending_events"]),
        "tenant.observe_p99_ms": statistics.median(results["tenant_p99_ms"]),
        "tenant.cache_bytes": statistics.median(results["tenant_cache_bytes"]),
        "checkpoint.bytes_per_tenant": sum(sizes) / len(sizes),
        "client.late_send_frac": sum(1 for lag in results["send_lag_ms"]
                                     if lag > 1.0)
        / len(results["send_lag_ms"]),
        "fleet.window_p99_ms": analysis.percentile(latency, 0.99),
        "fleet.late_frac": late / len(latency),
        "fleet.rejected_frac": results["rejections"] / results["requests"],
    }
    metrics.update(traced_tenants(data, work, tally))
    return metrics


def traced_tenants(data, work, tally):
    """Stream-layer figures of the tenants' own work: the first few tenant
    streams replayed in process with the server's monitor flags, traced and
    pooled. Each is also replayed untraced by the same program, and the
    ratio of the summed process walls is the tracing overhead."""
    cfg = WORKLOADS["server_fleet"]
    spans, windows, saves, reports = [], [], [], 0
    traced_wall = untraced_wall = 0.0
    for i in range(cfg["traced_tenants"]):
        run_dir = os.path.join(work, f"trace{i}")
        os.makedirs(run_dir, exist_ok=True)
        want = read_bytes(os.path.join(data, "reference", f"t{i:03d}.csv"))
        argv = [os.path.join(BIN, "pb_stream"), "--events",
                os.path.join(data, f"tenant_{i:03d}.txt"), "--window", "1",
                "--checkpoint", os.path.join(run_dir, "ck.bin"),
                "--checkpoint_every", "8"] + cfg["monitor_flags"]
        for traced in (False, True):
            out = os.path.join(run_dir, f"report{int(traced)}.csv")
            extra = ["--spans", os.path.join(run_dir, "spans.csv"),
                     "--windows_json", os.path.join(run_dir, "windows.json")]
            code, wall, _, _ = timed(argv + ["--output", out]
                                     + (extra if traced else []))
            tally.record([] if code == 0 and read_bytes(out) == want
                         else ["tenant replay differs from the reference"],
                         f"{'traced' if traced else 'untraced'} t{i:03d}")
            if traced:
                traced_wall += wall
            else:
                untraced_wall += wall
        _, _, w, s = traced_layers(run_dir)
        offset = len(spans)
        spans += [dict(x, id=x["id"] + offset,
                       parent=x["parent"] + offset if x["parent"] >= 0
                       else -1) for x in s]
        windows += w["windows"]
        saves += w["checkpoint_bytes"]
        reports += len(want.splitlines()) - 1
    metrics, wall = analysis.stream_layers(spans, windows)
    metrics.update({
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "host.mem_bw_gbps": measure_membw(),
        "report.rows": reports,
        "checkpoint.saves": len(saves),
        "checkpoint.bytes_per_save": sum(saves) / len(saves),
    })
    print_predictions("server_fleet", metrics, wall)
    return metrics


# --- main --------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    build()
    data = inputs(args.workload, args.seed,
                  tenant_count(args.seconds)
                  if args.workload == "server_fleet" else 0)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tally = Tally()
    try:
        if WORKLOADS[args.workload]["kind"] == "stream":
            metrics = stream_run(args.workload, data, work, args.seconds,
                                 args.trace, tally)
        else:
            metrics = server_run(data, work, args.seconds, args.trace, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
