#ifndef CAD_APP_STREAM_SESSION_H_
#define CAD_APP_STREAM_SESSION_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "common/result.h"
#include "core/online_monitor.h"
#include "core/threshold.h"
#include "graph/node_vocabulary.h"
#include "io/event_stream.h"

namespace cad {

/// Header line of every report CSV (cad_stream's and a server tenant's).
inline constexpr char kReportCsvHeader[] =
    "transition,u,v,score,weight_delta,commute_delta\n";

/// One report row without its newline: transition, endpoint labels, and
/// score, weight delta and commute delta at 9 significant digits.
std::string FormatReportRow(size_t transition, const ScoredEdge& edge,
                            const NodeVocabulary* vocabulary);

/// \brief Stream semantics shared by every front-end. All fields must match
/// across a kill and its resume for byte-identical output; they are not
/// stored in the checkpoint.
struct StreamSessionOptions {
  OnlineMonitorOptions monitor;
  /// Window length / start of window 0 in event-timestamp units.
  double window_length = 1.0;
  double start_time = 0.0;
  /// Under kStrict a bad event is returned as an error; under kSkip it is
  /// counted and dropped.
  EventErrorPolicy error_policy = EventErrorPolicy::kStrict;
  /// Interval checkpoint after every N observed windows (0 = never).
  size_t checkpoint_every = 0;
};

/// \brief The session flags cad_stream and cad_server share: --window,
/// --start_time, --error_policy, --checkpoint_every and the monitor's (--l,
/// --warmup, --max_history, --engine, --k, --seed, --warm_start,
/// --refactor_threshold, --incremental, --churn_threshold,
/// --incremental_tolerance). A front-end sets its own defaults before
/// Register.
struct StreamSessionFlags {
  double window = 1.0;
  double start_time = 0.0;
  int64_t checkpoint_every = 0;
  std::string error_policy = "strict";
  double l = 5.0;
  int64_t warmup = 2;
  int64_t max_history = 0;
  std::string engine = "auto";
  int64_t k = 50;
  int64_t seed = 1;
  bool warm_start = false;
  double refactor_threshold = 0.1;
  bool incremental = false;
  double churn_threshold = 0.25;
  double incremental_tolerance = 0.15;

  void Register(FlagParser* flags);
  /// Sets every field of `options`; InvalidArgument naming an unknown
  /// --engine or --error_policy value.
  [[nodiscard]] Status Apply(StreamSessionOptions* options) const;
};

/// \brief Where a session's output goes: the front-end owns the transport
/// (file, fsync, query tail) and the checkpoint file format.
class StreamSessionSink {
 public:
  virtual ~StreamSessionSink() = default;
  /// The rows of one anomaly report (FormatReportRow, no newlines), in order.
  [[nodiscard]] virtual Status WriteRows(std::vector<std::string> rows) = 0;
  /// Called after the rows of every checkpoint_every-th observed window.
  [[nodiscard]] virtual Status WriteCheckpoint() = 0;
  /// Wall time of one successful OnlineCadMonitor::Observe call.
  virtual void WindowObserved(uint64_t observe_ns) { (void)observe_ns; }
};

/// Event accounting of one session. `rejected` counts every event dropped
/// under kSkip (bad values or endpoints, window index out of range, refused
/// by the aggregator); `rejected_range` is its part past a fixed node set,
/// recorded in `io.events_rejected_range`, and the rest is recorded in
/// `io.events_rejected_parse`.
struct StreamSessionCounts {
  uint64_t fed = 0;
  uint64_t skipped_resume = 0;
  uint64_t rejected = 0;
  uint64_t rejected_range = 0;
  uint64_t before_start = 0;
};

/// \brief One stream's event -> window -> monitor -> report row -> interval
/// checkpoint loop, shared by cad_stream and the server tenant (DESIGN.md
/// §7). Windows an event closes are queued and ObserveNextWindow scores
/// them one at a time, so a caller can stop between backlogged windows.
class StreamSession {
 public:
  /// Validates the windowing options. `num_nodes` is the node-set size
  /// shared by every window; 0 discovers the node set from the events,
  /// growing it as unseen endpoints arrive (DESIGN.md §8). With a
  /// `checkpoint` (a plain monitor checkpoint, v1/v2/v3) the session
  /// resumes: events of the windows it holds are skipped, and AddTokens
  /// continues with `id_mode` (the one the checkpointing run had committed;
  /// kAuto lets the skipped events decide it again). `sink` is not owned
  /// and must outlive the session.
  [[nodiscard]] static Result<std::unique_ptr<StreamSession>> Create(
      StreamSessionOptions options, size_t num_nodes, StreamSessionSink* sink,
      std::istream* checkpoint = nullptr,
      EventIdMode id_mode = EventIdMode::kAuto);

  /// Writes the plain monitor checkpoint; a named stream carries its
  /// vocabulary (format v2).
  [[nodiscard]] Status SaveCheckpoint(std::ostream* out);

  /// Offers one event whose endpoints are still tokens. The endpoints
  /// resolve through PeekEventEndpoints, but only an accepted event commits
  /// the id mode (one fed, or skipped as already checkpointed) and interns
  /// its names (one fed): a rejected or before-start_time event leaves both
  /// as they were.
  [[nodiscard]] Status AddTokens(std::string_view u, std::string_view v,
                                 double timestamp, double weight);

  bool has_pending_window() const { return next_pending_ < pending_.size(); }
  /// Closed windows not yet observed.
  size_t pending_windows() const { return pending_.size() - next_pending_; }

  /// Scores the oldest queued window, hands its rows to the sink, and
  /// writes the interval checkpoint when one is due.
  [[nodiscard]] Status ObserveNextWindow();

  /// End of stream, once the queued windows are observed: rejects a resume
  /// checkpoint ahead of the stream (IoError), then scores the open window
  /// unless a resumed session fed nothing of its own.
  [[nodiscard]] Status Finish();

  OnlineCadMonitor& monitor() { return monitor_; }
  /// The working vocabulary: the names of every accepted event.
  const NodeVocabulary& vocabulary() const { return vocab_; }
  EventIdMode id_mode() const { return id_mode_; }
  bool resumed() const { return resumed_; }
  /// First window this session observes (the checkpoint's num_snapshots).
  size_t first_window() const { return first_window_; }
  /// Node-set high-water mark: the open window's or the monitor's.
  size_t num_nodes() const;
  const StreamSessionCounts& counts() const { return counts_; }

 private:
  StreamSession(StreamSessionOptions options, StreamSessionSink* sink);

  /// What Offer did with an event: rejected under kSkip or dropped before
  /// start_time, skipped as already checkpointed, or fed to the aggregator.
  enum class Offered { kDropped, kSkipped, kFed };
  [[nodiscard]] Result<Offered> Offer(const TimestampedEvent& event);
  /// The error policy: returns `status` under kStrict, counts it under kSkip.
  [[nodiscard]] Status Reject(const Status& status);

  const StreamSessionOptions options_;
  StreamSessionSink* const sink_;
  OnlineCadMonitor monitor_;
  NodeVocabulary vocab_;
  EventIdMode id_mode_ = EventIdMode::kAuto;
  std::optional<EventWindowAggregator> aggregator_;
  /// Closed windows not yet observed: pending_[next_pending_..].
  std::vector<WeightedGraph> pending_;
  size_t next_pending_ = 0;
  bool resumed_ = false;
  size_t first_window_ = 0;
  /// Highest window index any event mapped to, skipped ones included.
  std::optional<size_t> max_window_seen_;
  StreamSessionCounts counts_;
};

}  // namespace cad

#endif  // CAD_APP_STREAM_SESSION_H_
