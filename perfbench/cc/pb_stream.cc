// pb_stream — in-process stream replay for the benchmark: the traced run
// and the reference run.
//
// Replays an event file through EventStreamReader -> EventWindowAggregator
// -> OnlineCadMonitor -> report CSV (+ interval checkpoints) exactly as
// cad_stream does for a fresh run (strict error policy, window 0 at time 0),
// so its report CSV is byte-identical to cad_stream's for the same input and
// monitor flags. Events are parsed in chunks of kChunk before they are fed
// to the aggregator; parsing is independent of the monitor, so the order of
// chunking does not change any output.
//
// With --spans the run is traced: spans (name, start, end, parent, window)
// are kept in memory around the calls into each layer and written out when
// the run ends, and per-window deltas of the library's own metrics
// (span.* timers and counters, read through obs::SnapshotMetrics) are
// written to --windows_json. Without --spans nothing is recorded and the
// run is the in-process reference.
//
//   pb_stream --events ev.txt --num_nodes 10000 --engine approx
//             --incremental --output report.csv
//             [--checkpoint ck.bin --checkpoint_every 3]
//             [--spans spans.csv --windows_json windows.json]
//   pb_stream --jobs 4 --list pairs.txt --engine approx --k 25 --warm_start
//             # reference: one '<events> <output>' pair per line
//   pb_stream --membw_mib 1280   # read bandwidth in GB/s, on stdout

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/json_writer.h"
#include "common/strings.h"
#include "core/online_monitor.h"
#include "graph/node_vocabulary.h"
#include "io/event_stream.h"
#include "obs/metrics.h"

namespace cad {
namespace {

constexpr size_t kChunk = 1024;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Layer names of the benchmark's spans; the index is the span's name id.
const char* const kSpanNames[] = {"run",          "io.parse",
                                  "io.aggregate", "core.observe",
                                  "report.write", "checkpoint.save",
                                  "trace.snapshot"};
enum SpanName { kRun, kParse, kAggregate, kObserve, kReport, kCheckpoint,
                kSnapshot };

/// In-memory span log: one record per span, parent = the innermost open
/// span when it began. Nothing is written until Write().
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  void Begin(SpanName name, int64_t window) {
    if (!enabled_) return;
    const int64_t parent = open_.empty() ? -1 : open_.back();
    open_.push_back(static_cast<int64_t>(spans_.size()));
    spans_.push_back(Span{name, NowNs(), 0, parent, window});
  }
  void End() {
    if (!enabled_) return;
    spans_[static_cast<size_t>(open_.back())].end_ns = NowNs();
    open_.pop_back();
  }
  bool enabled() const { return enabled_; }
  Status Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out.is_open()) return Status::IoError("cannot open " + path);
    out << "id,name,start_ns,end_ns,parent,window\n";
    const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << "," << kSpanNames[s.name] << "," << s.start_ns - origin
          << "," << s.end_ns - origin << "," << s.parent << "," << s.window
          << "\n";
    }
    return out.good() ? Status::OK() : Status::IoError("write failed: " + path);
  }

 private:
  struct Span {
    SpanName name;
    uint64_t start_ns;
    uint64_t end_ns;
    int64_t parent;
    int64_t window;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name, int64_t window) : log_(log) {
    log_->Begin(name, window);
  }
  ~ScopedSpan() { log_->End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

/// What the library's own instruments recorded during one Observe call.
struct WindowRecord {
  size_t window = 0;
  size_t nodes = 0;
  size_t edges = 0;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, uint64_t>> timers_ns;
};

template <typename Value, typename Extract>
std::vector<std::pair<std::string, uint64_t>> Deltas(
    const std::vector<std::pair<std::string, Value>>& before,
    const std::vector<std::pair<std::string, Value>>& after,
    Extract extract) {
  std::vector<std::pair<std::string, uint64_t>> out;
  size_t j = 0;
  for (const auto& [name, value] : after) {
    while (j < before.size() && before[j].first < name) ++j;
    const uint64_t base =
        j < before.size() && before[j].first == name ? extract(before[j].second)
                                                     : 0;
    const uint64_t now = extract(value);
    if (now > base) out.emplace_back(name, now - base);
  }
  return out;
}

struct StreamConfig {
  std::string events;
  std::string output;
  double window = 1.0;
  size_t num_nodes = 0;
  OnlineMonitorOptions monitor;
  std::string checkpoint;
  size_t checkpoint_every = 0;
};

struct StreamResult {
  size_t events_fed = 0;
  size_t cache_bytes = 0;
  std::vector<WindowRecord> windows;
  std::vector<uint64_t> checkpoint_bytes;
};

void WriteReportRows(const AnomalyReport& report,
                     const NodeVocabulary* vocabulary, std::ostream* out) {
  for (const ScoredEdge& edge : report.edges) {
    (*out) << report.transition << "," << NodeLabel(vocabulary, edge.pair.u)
           << "," << NodeLabel(vocabulary, edge.pair.v) << ","
           << FormatDouble(edge.score, 9) << ","
           << FormatDouble(edge.weight_delta, 9) << ","
           << FormatDouble(edge.commute_delta, 9) << "\n";
  }
}

/// One fresh stream replay, cad_stream's loop with layer spans around it.
Result<StreamResult> RunStream(const StreamConfig& config, SpanLog* log) {
  StreamResult result;
  ScopedSpan run_span(log, kRun, -1);
  OnlineCadMonitor monitor(config.monitor);
  NodeVocabulary vocab;
  std::ofstream out(config.output);
  if (!out.is_open()) return Status::IoError("cannot open " + config.output);
  out << "transition,u,v,score,weight_delta,commute_delta\n";
  std::ifstream events_file(config.events);
  if (!events_file.is_open()) {
    return Status::IoError("cannot open " + config.events);
  }
  EventStreamReader reader(&events_file, EventErrorPolicy::kStrict, &vocab);
  const bool grow_mode = config.num_nodes == 0;
  EventWindowOptions window_options;
  window_options.window_length = config.window;
  window_options.start_time = 0.0;
  window_options.num_nodes = config.num_nodes;
  window_options.grow_nodes = grow_mode;
  Result<EventWindowAggregator> created =
      EventWindowAggregator::Create(window_options);
  if (!created.ok()) return created.status();
  EventWindowAggregator& aggregator = *created;

  const auto observe = [&](const WeightedGraph& snapshot) -> Status {
    const auto window = static_cast<int64_t>(monitor.num_snapshots());
    obs::MetricsSnapshot before;
    if (log->enabled()) {
      ScopedSpan span(log, kSnapshot, window);
      before = obs::SnapshotMetrics();
    }
    std::optional<Result<std::optional<AnomalyReport>>> observed;
    {
      ScopedSpan span(log, kObserve, window);
      observed.emplace(monitor.Observe(snapshot));
    }
    if (!observed->ok()) return observed->status();
    const std::optional<AnomalyReport>& report = **observed;
    if (log->enabled()) {
      ScopedSpan span(log, kSnapshot, window);
      const obs::MetricsSnapshot after = obs::SnapshotMetrics();
      WindowRecord record;
      record.window = static_cast<size_t>(window);
      record.nodes = snapshot.num_nodes();
      record.edges = snapshot.num_edges();
      record.counters = Deltas(before.counters, after.counters,
                               [](uint64_t v) { return v; });
      record.timers_ns = Deltas(before.timers, after.timers,
                                [](const obs::TimerData& t) {
                                  return t.total_ns;
                                });
      result.windows.push_back(std::move(record));
    }
    if (report.has_value()) {
      ScopedSpan span(log, kReport, window);
      WriteReportRows(*report, vocab.empty() ? nullptr : &vocab, &out);
    }
    if (config.checkpoint_every > 0 &&
        monitor.num_snapshots() % config.checkpoint_every == 0) {
      {
        ScopedSpan span(log, kCheckpoint, window);
        if (!vocab.empty()) monitor.SetVocabulary(vocab);
        CAD_RETURN_NOT_OK(monitor.SaveCheckpointFile(config.checkpoint));
      }
      std::error_code ec;
      const uintmax_t bytes =
          std::filesystem::file_size(config.checkpoint, ec);
      result.checkpoint_bytes.push_back(ec ? 0 : bytes);
    }
    return Status::OK();
  };

  std::vector<TimestampedEvent> chunk;
  chunk.reserve(kChunk);
  std::vector<WeightedGraph> completed;
  bool at_end = false;
  while (!at_end) {
    chunk.clear();
    {
      ScopedSpan span(log, kParse, -1);
      while (chunk.size() < kChunk) {
        Result<std::optional<TimestampedEvent>> next = reader.Next();
        if (!next.ok()) return next.status();
        if (!next->has_value()) {
          at_end = true;
          break;
        }
        chunk.push_back(**next);
      }
    }
    log->Begin(kAggregate, -1);
    for (const TimestampedEvent& event : chunk) {
      Result<size_t> event_window = aggregator.WindowIndex(event.timestamp);
      if (!event_window.ok()) {
        if (event.timestamp < 0.0) continue;
        log->End();
        return event_window.status();
      }
      completed.clear();
      const Status added = aggregator.Add(event, &completed);
      if (!added.ok()) {
        log->End();
        return added;
      }
      ++result.events_fed;
      if (completed.empty()) continue;
      log->End();
      for (const WeightedGraph& snapshot : completed) {
        CAD_RETURN_NOT_OK(observe(snapshot));
      }
      log->Begin(kAggregate, -1);
    }
    log->End();
  }
  WeightedGraph last;
  {
    ScopedSpan span(log, kAggregate, -1);
    last = aggregator.Flush();
  }
  CAD_RETURN_NOT_OK(observe(last));
  out.flush();
  if (!out.good()) return Status::IoError("report write failed");
  result.cache_bytes = monitor.SolverCacheBytes();
  return result;
}

/// Single-thread read bandwidth over an array of `mib` MiB (best of three
/// passes after a first pass that faults the pages in).
double MeasureReadBandwidthGbps(size_t mib) {
  const size_t count = mib * (size_t{1} << 20) / sizeof(double);
  std::vector<double> data(count);
  for (size_t i = 0; i < count; ++i) data[i] = static_cast<double>(i & 1023);
  double best_ns = 0.0;
  double sink = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const uint64_t start = NowNs();
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t i = 0; i + 3 < count; i += 4) {
      s0 += data[i];
      s1 += data[i + 1];
      s2 += data[i + 2];
      s3 += data[i + 3];
    }
    const auto elapsed = static_cast<double>(NowNs() - start);
    sink += s0 + s1 + s2 + s3;
    if (pass == 0 || elapsed < best_ns) best_ns = elapsed;
  }
  if (sink == -1.0) std::cerr << "";  // keeps the sums observable
  return static_cast<double>(count * sizeof(double)) / best_ns;
}

Status WriteWindowsJson(const std::string& path, const StreamResult& result) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  JsonWriter json(&out);
  json.BeginObject();
  json.Key("events");
  json.Number(result.events_fed);
  json.Key("cache_bytes");
  json.Number(result.cache_bytes);
  json.Key("checkpoint_bytes");
  json.BeginArray();
  for (const uint64_t bytes : result.checkpoint_bytes) {
    json.Number(static_cast<size_t>(bytes));
  }
  json.EndArray();
  json.Key("windows");
  json.BeginArray();
  for (const WindowRecord& record : result.windows) {
    json.BeginObject();
    json.Key("window");
    json.Number(record.window);
    json.Key("nodes");
    json.Number(record.nodes);
    json.Key("edges");
    json.Number(record.edges);
    for (const auto* group : {&record.counters, &record.timers_ns}) {
      json.Key(group == &record.counters ? "counters" : "timers_ns");
      json.BeginObject();
      for (const auto& [name, value] : *group) {
        json.Key(name);
        json.Number(static_cast<size_t>(value));
      }
      json.EndObject();
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  out << "\n";
  return out.good() ? Status::OK() : Status::IoError("write failed: " + path);
}

int Run(int argc, char** argv) {
  FlagParser flags;
  StreamConfig config;
  std::string list;
  int64_t jobs = 1;
  int64_t num_nodes = 0;
  int64_t checkpoint_every = 0;
  std::string engine = "auto";
  int64_t k = 50;
  int64_t seed = 1;
  int64_t threads = 1;
  bool warm_start = false;
  bool incremental = false;
  std::string spans;
  std::string windows_json;
  int64_t membw_mib = 0;
  flags.AddString("events", &config.events, "event file to replay");
  flags.AddString("output", &config.output, "report CSV to write");
  flags.AddString("list", &list,
                  "reference mode: file of '<events> <output>' lines, each "
                  "replayed untraced");
  flags.AddInt64("jobs", &jobs, "streams replayed concurrently with --list");
  flags.AddDouble("window", &config.window, "window length");
  flags.AddInt64("num_nodes", &num_nodes, "fixed node count (0 = discover)");
  flags.AddString("checkpoint", &config.checkpoint, "checkpoint file");
  flags.AddInt64("checkpoint_every", &checkpoint_every,
                 "checkpoint after every N windows");
  flags.AddString("engine", &engine, "auto, exact or approx");
  flags.AddInt64("k", &k, "embedding dimension");
  flags.AddInt64("seed", &seed, "approximate-engine seed");
  flags.AddInt64("threads", &threads, "solver threads");
  flags.AddBool("warm_start", &warm_start, "warm-started solves");
  flags.AddBool("incremental", &incremental, "incremental maintenance");
  flags.AddString("spans", &spans, "trace: write spans CSV here");
  flags.AddString("windows_json", &windows_json,
                  "trace: write per-window metric deltas here");
  flags.AddInt64("membw_mib", &membw_mib,
                 "alone: print the read bandwidth over an array this large");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.ToString() << "\n" << flags.Usage();
    return 2;
  }
  if (flags.help_requested()) return 0;
  if (membw_mib > 0 && list.empty() && config.events.empty()) {
    std::cout << MeasureReadBandwidthGbps(static_cast<size_t>(membw_mib))
              << "\n";
    return 0;
  }
  if ((list.empty() == config.events.empty()) || jobs < 1 || threads < 1 ||
      k < 1 || num_nodes < 0 || checkpoint_every < 0 || membw_mib != 0 ||
      (checkpoint_every > 0 && config.checkpoint.empty()) ||
      (!spans.empty() && (windows_json.empty() || !list.empty()))) {
    std::cerr << "pb_stream: need exactly one of --events/--list/--membw_mib; "
                 "--spans needs --windows_json and --events\n"
              << flags.Usage();
    return 2;
  }
  config.num_nodes = static_cast<size_t>(num_nodes);
  config.checkpoint_every = static_cast<size_t>(checkpoint_every);
  OnlineMonitorOptions& monitor = config.monitor;
  monitor.detector.approx.embedding_dim = static_cast<size_t>(k);
  monitor.detector.approx.seed = static_cast<uint64_t>(seed);
  monitor.detector.approx.warm_start = warm_start;
  monitor.incremental = incremental;
  monitor.detector.analysis_threads = static_cast<size_t>(threads);
  monitor.detector.approx.cg.num_threads = static_cast<size_t>(threads);
  if (engine == "exact") {
    monitor.detector.engine = CommuteEngine::kExact;
  } else if (engine == "approx") {
    monitor.detector.engine = CommuteEngine::kApprox;
  } else if (engine != "auto") {
    std::cerr << "unknown --engine '" << engine << "'\n";
    return 2;
  }

  if (!list.empty()) {
    std::ifstream in(list);
    std::vector<StreamConfig> runs;
    std::string events_path;
    std::string output_path;
    while (in >> events_path >> output_path) {
      runs.push_back(config);
      runs.back().events = events_path;
      runs.back().output = output_path;
    }
    std::vector<Status> statuses(runs.size(), Status::OK());
    std::vector<std::thread> workers;
    for (int64_t w = 0; w < jobs; ++w) {
      workers.emplace_back([&, w] {
        for (size_t i = static_cast<size_t>(w); i < runs.size();
             i += static_cast<size_t>(jobs)) {
          SpanLog off(false);
          statuses[i] = RunStream(runs[i], &off).status();
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    for (size_t i = 0; i < runs.size(); ++i) {
      if (!statuses[i].ok()) {
        std::cerr << runs[i].events << ": " << statuses[i].ToString() << "\n";
        return 1;
      }
    }
    return runs.empty() ? 1 : 0;
  }

  SpanLog log(!spans.empty());
  if (log.enabled()) {
    obs::ResetMetrics();
    obs::SetMetricsEnabled(true);
  }
  Result<StreamResult> result = RunStream(config, &log);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }
  if (log.enabled()) {
    Status written = log.Write(spans);
    if (written.ok()) written = WriteWindowsJson(windows_json, *result);
    if (!written.ok()) {
      std::cerr << written.ToString() << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace cad

int main(int argc, char** argv) { return cad::Run(argc, argv); }
