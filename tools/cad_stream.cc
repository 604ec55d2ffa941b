// cad_stream — fault-tolerant streaming anomaly monitor over an event file.
//
// Reads timestamped events '<u> <v> <t> [w]' in time order and drives a
// StreamSession (src/app/stream_session.h) with them: the session windows
// the events, scores each completed window with an OnlineCadMonitor and
// formats one CSV row per reported anomalous edge, the same loop a
// cad_server tenant runs. This file owns the flags, the file reader, signals
// and --max_snapshots. Unlike cad_cli --events, the file is never
// materialized as a whole sequence: memory stays O(window + max_history).
//
// Endpoints may be integer ids or string names ('alice bob 3.5'), and with
// --num_nodes 0 the node set is discovered from the events (DESIGN.md §8).
//
// Checkpointing makes the stream restartable:
//
//   cad_stream --events ev.txt --window 1 --num_nodes 64
//              --checkpoint ck.bin --checkpoint_every 10 --output run.csv
//   # ...process dies / is killed...
//   cad_stream --events ev.txt --window 1 --num_nodes 64
//              --resume_from ck.bin --output rest.csv
//
// The resumed run skips already-processed windows and emits exactly the
// reports the uninterrupted run would have produced from that point, with
// no CSV header, so `cat run_killed.csv rest.csv` is byte-identical to the
// uninterrupted run's output (monitor options must match across runs; they
// are not stored in the checkpoint).
//
// SIGINT/SIGTERM request a graceful stop: the monitor loop checks the stop
// flag at window granularity, writes a final checkpoint (if --checkpoint is
// set), dumps the flight recorder (if enabled), and exits with code 3 —
// distinct from 0 (completed), 1 (runtime error), and 2 (usage error) — so
// a supervisor can tell an interrupted run from a failed one.

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "app/stream_session.h"
#include "common/flags.h"
#include "common/strings.h"
#include "core/checkpoint.h"
#include "io/event_stream.h"
#include "obs/obs.h"
#include "server/signal_util.h"

namespace cad {
namespace {

/// cad_stream's end of the session: report rows to --output and plain
/// monitor checkpoints (format v1/v2/v3, no envelope) to --checkpoint.
struct StreamOutput final : StreamSessionSink {
  Status WriteRows(std::vector<std::string> rows) override {
    for (const std::string& row : rows) (*out) << row << "\n";
    return Status::OK();
  }

  Status WriteCheckpoint() override {
    CAD_RETURN_NOT_OK(WriteFileAtomic(checkpoint_path, [this](std::ostream* o) {
      return session->SaveCheckpoint(o);
    }));
    const size_t window = session->monitor().num_snapshots();
    CAD_METRIC_INC("stream.checkpoints");
    CAD_FLIGHT_NOTE("stream.checkpoint", static_cast<double>(window));
    std::cerr << "checkpoint written at window " << window << "\n";
    return Status::OK();
  }

  std::ostream* out = &std::cout;
  std::string checkpoint_path;
  StreamSession* session = nullptr;
};

int Run(int argc, char** argv) {
  FlagParser flags;
  std::string events;
  int64_t num_nodes = 0;
  std::string output = "-";
  std::string checkpoint;
  std::string resume_from;
  int64_t max_snapshots = 0;
  int64_t threads = 1;
  std::string stats_json;
  int64_t stats_every = 0;
  std::string metrics_csv;
  std::string trace_json;
  std::string flight_recorder;
  StreamSessionFlags stream_flags;
  stream_flags.window = 0.0;  // required
  stream_flags.Register(&flags);
  flags.AddString("events", &events,
                  "timestamped event file '<u> <v> <t> [w]', time-ordered");
  flags.AddInt64("num_nodes", &num_nodes,
                 "fixed node-set size shared by every window; 0 discovers "
                 "the node set from the events (it grows as unseen "
                 "endpoints arrive)");
  flags.AddString("output", &output,
                  "anomalous-edge CSV destination ('-' for stdout)");
  flags.AddString("checkpoint", &checkpoint,
                  "write monitor checkpoints to this file");
  flags.AddString("resume_from", &resume_from,
                  "restore monitor state from this checkpoint before "
                  "streaming; already-processed windows are skipped");
  flags.AddInt64("max_snapshots", &max_snapshots,
                 "stop after observing this many windows (0 = no limit); "
                 "the in-progress window is not flushed, simulating a kill");
  flags.AddInt64("threads", &threads,
                 "worker threads for the per-window Laplacian solves");
  flags.AddString("stats_json", &stats_json,
                  "write one heartbeat JSON line per --stats_every windows "
                  "here ('-' for stdout); see DESIGN.md §10 for the schema");
  flags.AddInt64("stats_every", &stats_every,
                 "emit a heartbeat after every N observed windows "
                 "(0 disables; enables metrics recording)");
  flags.AddString("metrics_csv", &metrics_csv,
                  "record runtime metrics and write them as CSV here at "
                  "exit ('-' for stdout)");
  flags.AddString("trace_json", &trace_json,
                  "record trace spans and write Chrome trace JSON here at "
                  "exit (open in chrome://tracing; '-' for stdout)");
  flags.AddString("flight_recorder", &flight_recorder,
                  "keep a bounded ring of recent spans/events and dump it "
                  "as JSON to this file if the stream fails");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.ToString() << "\n" << flags.Usage();
    return 2;
  }
  if (flags.help_requested()) return 0;
  if (events.empty()) {
    std::cerr << "--events is required\n" << flags.Usage();
    return 2;
  }
  if (stream_flags.window <= 0.0) {
    std::cerr << "--window must be positive\n";
    return 2;
  }
  if (num_nodes < 0) {
    std::cerr << "--num_nodes must be >= 0 (0 = discover the node set)\n";
    return 2;
  }
  if (stream_flags.checkpoint_every > 0 && checkpoint.empty()) {
    std::cerr << "--checkpoint_every requires --checkpoint\n";
    return 2;
  }
  if (threads < 1) {
    std::cerr << "--threads must be >= 1\n";
    return 2;
  }
  StreamSessionOptions session_options;
  const Status applied = stream_flags.Apply(&session_options);
  if (!applied.ok()) {
    std::cerr << applied.message() << "\n";
    return 2;
  }
  session_options.monitor.detector.analysis_threads =
      static_cast<size_t>(threads);
  session_options.monitor.detector.approx.cg.num_threads =
      static_cast<size_t>(threads);
  if (stats_every < 0) {
    std::cerr << "--stats_every must be >= 0\n";
    return 2;
  }
  if ((stats_every > 0) != !stats_json.empty()) {
    std::cerr << "--stats_every and --stats_json must be used together\n";
    return 2;
  }

  // Turn observability on before the monitor is built so every window is
  // covered. The heartbeat contract (one record per N windows, non-timer
  // fields byte-identical across same-seed runs at any thread count) needs
  // metrics recording on.
  if (!metrics_csv.empty() || stats_every > 0) {
    obs::ResetMetrics();
    obs::SetMetricsEnabled(true);
  }
  if (!trace_json.empty()) {
    obs::ResetTracing();
    obs::SetTracingEnabled(true);
  }
  if (!flight_recorder.empty()) {
    obs::ResetFlightRecorder();
    obs::SetFlightRecorderEnabled(true);
  }
  // On any failure or interrupt path, dump the flight-recorder ring (last
  // spans and events before the error) for the postmortem. `note` labels
  // why; `line` is the input line being processed, or 0 when the dump was
  // not tied to one.
  const auto dump_flight_as = [&](const char* note, double line) {
    if (flight_recorder.empty()) return;
    CAD_FLIGHT_NOTE(note, line);
    std::ofstream ring_out(flight_recorder);
    if (!ring_out.is_open()) {
      std::cerr << "cannot open --flight_recorder " << flight_recorder << "\n";
      return;
    }
    const Status written = obs::WriteFlightRecorderJson(&ring_out);
    if (written.ok()) {
      std::cerr << "flight recorder dumped to " << flight_recorder << "\n";
    } else {
      std::cerr << written.ToString() << "\n";
    }
  };

  // Graceful-stop plumbing: SIGINT/SIGTERM raise a flag the monitor loop
  // checks at window granularity (async-signal-safe; src/server/signal_util).
  const Status signals_installed = server::InstallStopSignalHandlers();
  if (!signals_installed.ok()) {
    std::cerr << signals_installed.ToString() << "\n";
    return 1;
  }

  StreamOutput sink;
  sink.checkpoint_path = checkpoint;
  const bool resumed = !resume_from.empty();
  std::ifstream checkpoint_file;
  if (resumed) checkpoint_file.open(resume_from, std::ios::binary);
  Result<std::unique_ptr<StreamSession>> created =
      Status::IoError("cannot open for reading: " + resume_from);
  if (!resumed || checkpoint_file.is_open()) {
    created = StreamSession::Create(session_options,
                                    static_cast<size_t>(num_nodes), &sink,
                                    resumed ? &checkpoint_file : nullptr);
  }
  if (!created.ok()) {
    std::cerr << (resumed ? "resume failed: " : "")
              << created.status().ToString() << "\n";
    dump_flight_as("stream.failure", 0.0);
    return 1;
  }
  StreamSession& session = **created;
  sink.session = &session;
  if (resumed) {
    const OnlineCadMonitor& monitor = session.monitor();
    std::cerr << "resumed at window " << monitor.num_snapshots() << " ("
              << monitor.num_transitions() << " transitions, delta="
              << FormatDouble(monitor.current_delta(), 9) << ")\n";
  }

  // Heartbeat sink + reporter must outlive the monitor loop. Constructed
  // before any window is observed, so the first record's deltas cover the
  // stream from its very first event.
  std::ofstream stats_file;
  std::unique_ptr<obs::StatsReporter> stats;
  if (stats_every > 0) {
    std::ostream* stats_out = &std::cout;
    if (stats_json != "-") {
      stats_file.open(stats_json);
      if (!stats_file.is_open()) {
        std::cerr << "cannot open --stats_json file " << stats_json << "\n";
        return 1;
      }
      stats_out = &stats_file;
    }
    stats = std::make_unique<obs::StatsReporter>(
        stats_out, static_cast<uint64_t>(stats_every));
    session.monitor().SetStatsReporter(stats.get());
  }

  std::ofstream output_file;
  if (output != "-") {
    output_file.open(output);
    if (!output_file.is_open()) {
      std::cerr << "cannot open --output " << output << "\n";
      return 1;
    }
    sink.out = &output_file;
  }
  // Header only on fresh runs: a resumed run's rows concatenate onto the
  // killed run's file to reproduce the uninterrupted output byte-for-byte.
  if (!resumed) (*sink.out) << kReportCsvHeader;

  std::ifstream events_file(events);
  if (!events_file.is_open()) {
    std::cerr << "cannot open --events " << events << "\n";
    return 1;
  }
  // The reader checks each line's fields and values; the session resolves
  // the endpoint tokens, as it does for a server tenant's wire events.
  EventStreamReader reader(&events_file, session_options.error_policy);
  const auto fail = [&](const Status& status) {
    std::cerr << status.ToString() << "\n";
    dump_flight_as("stream.failure", static_cast<double>(reader.line_number()));
    return 1;
  };

  bool stopped_early = false;
  bool interrupted = false;
  while (!stopped_early && !interrupted) {
    if (server::StopRequested()) {
      interrupted = true;
      break;
    }
    Result<std::optional<EventRecord>> next = reader.NextRecord();
    if (!next.ok()) return fail(next.status());
    if (!next->has_value()) break;
    const EventRecord& record = **next;
    const uint64_t fed = session.counts().fed;
    const Status added = session.AddTokens(record.u, record.v,
                                           record.timestamp, record.weight);
    if (!added.ok()) {
      return fail(Status(added.code(),
                         "event at line " +
                             std::to_string(reader.line_number()) + ": " +
                             added.message()));
    }
    // Windows this event closed that are not yet observed: the backlog a
    // gap in the stream creates. A function of the event data alone, so a
    // plain gauge, and per process, since a process runs one stream.
    if (session.counts().fed > fed) {
      CAD_METRIC_SET("stream.queue_depth", session.pending_windows());
    }
    // Window boundaries are the consistent points: --max_snapshots and a
    // stop request between backlogged windows take effect before the next
    // Observe.
    while (session.has_pending_window()) {
      const Status observed = session.ObserveNextWindow();
      if (!observed.ok()) return fail(observed);
      if (max_snapshots > 0 && session.monitor().num_snapshots() >=
                                   static_cast<size_t>(max_snapshots)) {
        stopped_early = true;
        break;
      }
      if (server::StopRequested()) {
        interrupted = true;
        break;
      }
    }
  }

  if (interrupted) {
    std::cerr << "interrupted by signal " << server::StopSignal()
              << " at window " << session.monitor().num_snapshots() << "\n";
    // Final checkpoint at the interrupt's window boundary: the run can be
    // resumed with --resume_from as if the interval had just fired.
    if (!checkpoint.empty()) {
      const Status saved = sink.WriteCheckpoint();
      if (!saved.ok()) return fail(saved);
    }
    dump_flight_as("stream.interrupted",
                   static_cast<double>(server::StopSignal()));
  }

  // End of stream. A max_snapshots stop simulates a kill and an interrupt is
  // a suspension, so neither finishes: the in-progress window stays open.
  if (!stopped_early && !interrupted) {
    const Status finished = session.Finish();
    if (!finished.ok()) {
      return fail(Status(finished.code(),
                         finished.message() + " (events file line " +
                             std::to_string(reader.line_number()) +
                             "; check --events, --window and --start_time)"));
    }
  }

  if (!sink.out->good()) {
    std::cerr << "output write failed\n";
    dump_flight_as("stream.failure", 0.0);
    return 1;
  }

  // Exit-time observability exports (mirrors cad_cli).
  const auto write_export = [&](const std::string& target,
                                auto writer) -> Status {
    if (target == "-") return writer(&std::cout);
    std::ofstream file(target);
    if (!file.is_open()) return Status::IoError("cannot open " + target);
    return writer(&file);
  };
  if (!metrics_csv.empty()) {
    const Status written = write_export(metrics_csv, [](std::ostream* sink) {
      return obs::WriteMetricsCsv(obs::SnapshotMetrics(), sink);
    });
    if (!written.ok()) {
      std::cerr << written.ToString() << "\n";
      return 1;
    }
  }
  if (!trace_json.empty()) {
    const Status written = write_export(trace_json, [](std::ostream* sink) {
      return obs::WriteChromeTraceJson(sink);
    });
    if (!written.ok()) {
      std::cerr << written.ToString() << "\n";
      return 1;
    }
  }
  const OnlineCadMonitor& monitor = session.monitor();
  const StreamSessionCounts& counts = session.counts();
  std::cerr << "processed " << monitor.num_snapshots() << " windows, "
            << monitor.num_transitions() << " transitions (fed " << counts.fed
            << " events";
  if (resumed) std::cerr << ", skipped " << counts.skipped_resume;
  if (session_options.error_policy == EventErrorPolicy::kSkip) {
    const uint64_t parse = reader.events_rejected_parse() + counts.rejected -
                           counts.rejected_range;
    std::cerr << ", rejected " << parse + counts.rejected_range << " (parse "
              << parse << ", range " << counts.rejected_range << ")";
  }
  std::cerr << "), delta=" << FormatDouble(monitor.current_delta(), 9) << "\n";
  // Exit 3 marks "interrupted, state saved": distinct from success and from
  // errors so supervisors and the CI drain test can tell them apart.
  return interrupted ? 3 : 0;
}

}  // namespace
}  // namespace cad

int main(int argc, char** argv) { return cad::Run(argc, argv); }
