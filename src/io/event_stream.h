#ifndef CAD_IO_EVENT_STREAM_H_
#define CAD_IO_EVENT_STREAM_H_

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "graph/node_vocabulary.h"
#include "graph/temporal_graph.h"

namespace cad {

/// \brief One timestamped interaction (an email, a co-authored paper, a
/// message) between two nodes.
struct TimestampedEvent {
  NodeId u = 0;
  NodeId v = 0;
  double timestamp = 0.0;
  /// Contribution to the edge weight of its window (emails: 1 each).
  double weight = 1.0;
};

/// \brief Options for turning an event stream into graph snapshots.
struct EventAggregationOptions {
  /// Window length in timestamp units (e.g. 30*24*3600 for monthly windows
  /// over unix seconds). Must be positive.
  double window_length = 1.0;
  /// Start of window 0; NaN (default) means the minimum event timestamp.
  /// When set, it must be finite.
  double start_time = std::numeric_limits<double>::quiet_NaN();
  /// Node-set size; 0 means max node id + 1 (the paper's fixed-vertex-set
  /// framing requires all snapshots to share it).
  size_t num_nodes = 0;
  /// Number of windows; 0 means enough to cover the last event at or after
  /// the start. Events outside [start, start + num_windows * window_length)
  /// are dropped.
  size_t num_windows = 0;
};

/// \brief Aggregates events into a TemporalGraphSequence: each event adds
/// its weight to edge {u, v} of the window containing its timestamp.
/// Self-loop events are rejected (InvalidArgument), as are non-positive
/// window lengths and events with non-finite fields.
[[nodiscard]] Result<TemporalGraphSequence> AggregateEventStream(
    const std::vector<TimestampedEvent>& events,
    const EventAggregationOptions& options);

/// \brief Per-record failure handling for streaming ingestion.
enum class EventErrorPolicy {
  /// Fail fast: the first malformed record aborts the read with a
  /// line-numbered error (the historical behavior).
  kStrict,
  /// Drop-and-count: malformed records are skipped; the reader tracks the
  /// count (and bumps the `io.events_rejected` metric) so operators can
  /// alert on rejection rates instead of losing the whole stream.
  kSkip,
};

/// \brief How event endpoint tokens are interpreted (DESIGN.md §8). The
/// values are stored in server tenant checkpoints.
enum class EventIdMode : uint8_t {
  /// Decide from the first accepted event: if both endpoint tokens parse as
  /// non-negative integers the stream is integer-keyed, otherwise named.
  /// Without a vocabulary the reader is always integer-keyed.
  kAuto = 0,
  /// Endpoints are dense integer ids (the historical format).
  kInteger = 1,
  /// Every endpoint token — numeric-looking or not — is interned into the
  /// vocabulary in first-appearance order.
  kNamed = 2,
};

/// Checks the values of one event: a finite timestamp and a finite,
/// non-negative weight. InvalidArgument without a location otherwise.
[[nodiscard]] Status ValidateEventValues(double timestamp, double weight);

/// \brief Resolves one event's endpoint tokens to node ids without side
/// effects; every event source decides integer vs named ids here.
/// `*mode` receives the id mode the event selects: `id_mode` once it is
/// committed, and under kAuto kInteger for two non-negative integers, else
/// kNamed. A null vocabulary means integer ids only. Both names are
/// validated; a name the vocabulary does not hold yet gets the id
/// interning it would receive. Errors carry no location.
[[nodiscard]] Status PeekEventEndpoints(std::string_view u,
                                        std::string_view v,
                                        EventIdMode id_mode,
                                        const NodeVocabulary* vocabulary,
                                        EventIdMode* mode,
                                        TimestampedEvent* event);

/// Commits an event PeekEventEndpoints resolved, once the event is
/// accepted: sets `*id_mode` to `mode` and interns the new names, which
/// receive the ids the peek gave them. No-op without a vocabulary. The
/// vocabulary must not change between the two calls.
void CommitEventEndpoints(std::string_view u, std::string_view v,
                          EventIdMode mode, const TimestampedEvent& event,
                          EventIdMode* id_mode, NodeVocabulary* vocabulary);

/// \brief One well-formed line of the event format whose endpoints are
/// still tokens. The views point into the reader's line buffer and are
/// valid until its next read.
struct EventRecord {
  std::string_view u;
  std::string_view v;
  double timestamp = 0.0;
  double weight = 1.0;
};

/// \brief Incremental reader for the event text format:
///
///   # comment lines start with '#', blank lines are ignored
///   <u> <v> <timestamp> [weight]
///
/// Fields are separated by runs of whitespace. Records with missing/extra
/// fields, unparsable numbers, negative ids, non-finite timestamps or
/// weights, or negative weights are malformed; EventErrorPolicy decides
/// whether they abort the read or are counted and skipped. Unlike the bulk
/// ReadEventStream, the reader holds one record at a time, so arbitrarily
/// long streams can be consumed in O(1) memory.
///
/// With a vocabulary attached, endpoint tokens are interned as string names
/// per EventIdMode. A line's endpoints are interned only after every other
/// field validates, so rejected lines never pollute the vocabulary. The
/// caller owns the vocabulary; replaying a stream prefix reproduces a
/// vocabulary prefix, which is what makes checkpoint resume of named
/// streams exact.
class EventStreamReader {
 public:
  explicit EventStreamReader(
      std::istream* in, EventErrorPolicy policy = EventErrorPolicy::kStrict,
      NodeVocabulary* vocabulary = nullptr,
      EventIdMode id_mode = EventIdMode::kAuto);

  /// The next well-formed event, or nullopt at end of stream. A mid-file
  /// read failure (stream badbit) reports IoError rather than a silent
  /// truncation at EOF.
  [[nodiscard]] Result<std::optional<TimestampedEvent>> Next();

  /// Next without endpoint resolution: the next line whose fields and
  /// values are well formed, for a consumer that resolves the endpoints
  /// only once it accepts the event (StreamSession::AddTokens). The
  /// reader's vocabulary and id mode are left untouched.
  [[nodiscard]] Result<std::optional<EventRecord>> NextRecord();

  /// 1-based line number of the most recently consumed line.
  size_t line_number() const { return line_number_; }

  /// Records dropped so far under EventErrorPolicy::kSkip because they
  /// failed to parse (`io.events_rejected_parse`). Range rejections happen
  /// downstream, at the window aggregator.
  size_t events_rejected_parse() const { return events_rejected_parse_; }

  /// The resolved id mode: kAuto until the first well-formed line commits
  /// it (PeekEventEndpoints).
  EventIdMode id_mode() const { return id_mode_; }

 private:
  /// The error policy for one bad line: returns `status` under kStrict,
  /// counts it under kSkip.
  [[nodiscard]] Status RejectLine(const Status& status);

  std::istream* in_;
  EventErrorPolicy policy_;
  NodeVocabulary* vocabulary_;
  EventIdMode id_mode_;
  size_t line_number_ = 0;
  size_t events_rejected_parse_ = 0;
  // One line buffer for the whole stream; parsed fields are views into it.
  std::string line_;
};

/// Reads a whole stream in the text format; see EventStreamReader. Under
/// kStrict the first malformed line aborts with a line-numbered error;
/// under kSkip, `*events_rejected` (optional) receives the dropped-record
/// count. With a vocabulary, endpoint tokens are interpreted per `id_mode`
/// and names are interned in first-appearance order (integer-keyed
/// streams leave it empty).
[[nodiscard]] Result<std::vector<TimestampedEvent>> ReadEventStream(
    std::istream* in, EventErrorPolicy policy = EventErrorPolicy::kStrict,
    size_t* events_rejected = nullptr, NodeVocabulary* vocabulary = nullptr,
    EventIdMode id_mode = EventIdMode::kAuto);

/// File variant of ReadEventStream.
[[nodiscard]] Result<std::vector<TimestampedEvent>> ReadEventStreamFile(
    const std::string& path,
    EventErrorPolicy policy = EventErrorPolicy::kStrict,
    size_t* events_rejected = nullptr, NodeVocabulary* vocabulary = nullptr,
    EventIdMode id_mode = EventIdMode::kAuto);

/// \brief Configuration for EventWindowAggregator.
struct EventWindowOptions {
  /// Window length in timestamp units. Must be positive and finite.
  double window_length = 1.0;
  /// Start of window 0. Must be finite (streaming cannot infer it after the
  /// fact; infer from the first event before constructing if needed).
  double start_time = 0.0;
  /// Node-set size of the first emitted snapshot. Must be > 0 unless
  /// `grow_nodes` is set, in which case 0 means "start empty and discover".
  size_t num_nodes = 0;
  /// Index of the first window to materialize; events in earlier windows
  /// are rejected by Add. Used to resume a stream from a checkpoint.
  size_t first_window = 0;
  /// When true the node set is discovered rather than declared: an event
  /// endpoint past the current size grows the open window instead of being
  /// rejected as out of range. Emitted snapshot sizes are non-decreasing
  /// (each window keeps the size the node set had when it closed); consumers
  /// that need a fixed size grow earlier snapshots afterwards.
  bool grow_nodes = false;
};

/// \brief Streaming counterpart of AggregateEventStream: feed time-ordered
/// events one at a time; each window's snapshot is emitted as soon as an
/// event lands past its end, so only the one in-progress window is held in
/// memory. Buckets match AggregateEventStream exactly (same floor((t -
/// start) / window_length) arithmetic), so driving a monitor from this
/// aggregator reproduces the batch pipeline's snapshots.
class EventWindowAggregator {
 public:
  /// Validates options. InvalidArgument on a non-positive/non-finite window
  /// length, non-finite start, or zero node count without `grow_nodes`.
  [[nodiscard]] static Result<EventWindowAggregator> Create(
      const EventWindowOptions& options);

  /// Window index containing `timestamp` (same bucketing as
  /// AggregateEventStream). InvalidArgument for timestamps before
  /// start_time or non-finite.
  [[nodiscard]] Result<size_t> WindowIndex(double timestamp) const;

  /// The checks Add makes of the event alone, without the window order:
  /// InvalidArgument for a self-loop, a non-finite timestamp or a bad
  /// weight, OutOfRange for an endpoint past a fixed node set.
  [[nodiscard]] Status CheckEvent(const TimestampedEvent& event) const;

  /// Feeds one event. Windows that closed strictly before the event's
  /// window are appended to `*completed` in order (possibly none, possibly
  /// several empty ones for quiet periods), each frozen
  /// (WeightedGraph::Freeze). Malformed events (self-loop, endpoint >=
  /// num_nodes, non-finite fields, negative weight) and events before the
  /// current open window (out of order, or before first_window) return
  /// InvalidArgument without consuming the event — the caller's
  /// error policy decides whether that is fatal.
  [[nodiscard]] Status Add(const TimestampedEvent& event,
                           std::vector<WeightedGraph>* completed);

  /// Closes and returns the in-progress window (the final, possibly
  /// partial, snapshot), frozen. The aggregator then continues with the
  /// next window index, so Flush at end-of-stream matches
  /// AggregateEventStream's last window.
  WeightedGraph Flush();

  /// Index of the currently open window.
  size_t current_window() const { return current_window_; }

  /// Current node-set size (grows under EventWindowOptions::grow_nodes).
  size_t num_nodes() const { return current_.num_nodes(); }

 private:
  explicit EventWindowAggregator(const EventWindowOptions& options)
      : options_(options),
        current_window_(options.first_window),
        current_(WeightedGraph(options.num_nodes)) {}

  EventWindowOptions options_;
  size_t current_window_;
  WeightedGraph current_;
};

}  // namespace cad

#endif  // CAD_IO_EVENT_STREAM_H_
