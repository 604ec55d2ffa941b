#include "io/event_stream.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <utility>

#include "common/strings.h"
#include "obs/obs.h"

namespace cad {

namespace {

// Largest window count AggregateEventStream will materialize when it has to
// derive one from the event span. Guards the size_t cast against the
// wraparound/overflow class of bugs: a bogus start_time or a tiny window
// length must fail loudly instead of attempting a ~2^64-snapshot allocation.
constexpr double kMaxDerivedWindows = 1e12;

/// Most fields an event line has: <u> <v> <timestamp> [weight].
constexpr size_t kMaxEventFields = 4;

/// The whitespace-separated tokens of one line (std::isspace runs, exactly
/// as SplitTokens splits). Views into the line; `count` counts every token,
/// even past the kMaxEventFields that are kept.
struct LineFields {
  std::string_view field[kMaxEventFields];
  size_t count = 0;
};

LineFields TokenizeLine(std::string_view line) {
  LineFields fields;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    const size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i > start) {
      if (fields.count < kMaxEventFields) {
        fields.field[fields.count] = line.substr(start, i - start);
      }
      ++fields.count;
    }
  }
  return fields;
}

/// Accumulates a run of decimal digits into `*mantissa`; returns how many
/// digits it read (stops at `max_digits` + 1 so overlong runs are seen).
size_t ReadDigits(std::string_view token, size_t* pos, size_t max_digits,
                  uint64_t* mantissa) {
  size_t digits = 0;
  while (*pos < token.size() && token[*pos] >= '0' && token[*pos] <= '9' &&
         digits <= max_digits) {
    *mantissa = *mantissa * 10 + static_cast<uint64_t>(token[*pos] - '0');
    ++*pos;
    ++digits;
  }
  return digits;
}

/// ParseInt64's verdict and value (strtoll rules). Plain [+-]digits tokens
/// of up to 18 digits cannot overflow and are converted directly; every
/// other token goes through ParseInt64 itself.
bool TokenToInt64(std::string_view token, int64_t* value) {
  size_t pos = 0;
  const bool negative = !token.empty() && token[0] == '-';
  if (!token.empty() && (token[0] == '-' || token[0] == '+')) ++pos;
  uint64_t mantissa = 0;
  const size_t digits = ReadDigits(token, &pos, 18, &mantissa);
  if (digits >= 1 && digits <= 18 && pos == token.size()) {
    const auto magnitude = static_cast<int64_t>(mantissa);
    *value = negative ? -magnitude : magnitude;
    return true;
  }
  Result<int64_t> parsed = ParseInt64(token);
  if (!parsed.ok()) return false;
  *value = *parsed;
  return true;
}

/// ParseDouble's verdict and value (strtod rules). Plain decimals
/// -?digits[.digits] with at most 15 digits in all are converted directly:
/// the digits form an integer below 2^53 and 10^fraction_digits is exact,
/// so one IEEE division rounds the decimal value correctly — the same bits
/// strtod returns. Every other token goes through ParseDouble itself.
bool TokenToDouble(std::string_view token, double* value) {
  static constexpr double kPow10[] = {1e0, 1e1, 1e2,  1e3,  1e4,  1e5,
                                      1e6, 1e7, 1e8,  1e9,  1e10, 1e11,
                                      1e12, 1e13, 1e14, 1e15};
  size_t pos = 0;
  const bool negative = !token.empty() && token[0] == '-';
  if (negative) ++pos;
  uint64_t mantissa = 0;
  const size_t int_digits = ReadDigits(token, &pos, 15, &mantissa);
  size_t frac_digits = 0;
  if (int_digits >= 1 && pos < token.size() && token[pos] == '.') {
    ++pos;
    frac_digits = ReadDigits(token, &pos, 15 - std::min<size_t>(int_digits, 15),
                             &mantissa);
  }
  if (int_digits >= 1 && int_digits + frac_digits <= 15 &&
      pos == token.size()) {
    const double magnitude =
        static_cast<double>(mantissa) / kPow10[frac_digits];
    *value = negative ? -magnitude : magnitude;
    return true;
  }
  Result<double> parsed = ParseDouble(token);
  if (!parsed.ok()) return false;
  *value = *parsed;
  return true;
}

/// True when `token` parses as a non-negative integer, i.e. a valid dense
/// node id (used by EventIdMode::kAuto to commit a stream's id mode).
bool LooksLikeIntegerId(std::string_view token) {
  int64_t value = 0;
  return TokenToInt64(token, &value) && value >= 0;
}

/// Parses the fields of one non-comment line of the event format. The
/// endpoints stay tokens: a caller resolves them (PeekEventEndpoints) only
/// after every other field validates, so rejected lines never pollute the
/// vocabulary or commit the id mode.
Result<EventRecord> ParseEventRecord(const LineFields& fields,
                                     size_t line_number) {
  const auto error_at = [line_number](const std::string& message) {
    return Status::InvalidArgument("line " + std::to_string(line_number) +
                                   ": " + message);
  };
  if (fields.count != 3 && fields.count != 4) {
    return error_at("expected '<u> <v> <timestamp> [weight]'");
  }
  EventRecord record;
  record.u = fields.field[0];
  record.v = fields.field[1];
  if (!TokenToDouble(fields.field[2], &record.timestamp)) {
    return error_at("malformed event");
  }
  if (fields.count == 4 && !TokenToDouble(fields.field[3], &record.weight)) {
    return error_at("malformed weight");
  }
  const Status values = ValidateEventValues(record.timestamp, record.weight);
  if (!values.ok()) return error_at(values.message());
  return record;
}

}  // namespace

Status ValidateEventValues(double timestamp, double weight) {
  if (!std::isfinite(timestamp)) {
    return Status::InvalidArgument("non-finite timestamp");
  }
  if (!std::isfinite(weight) || weight < 0.0) {
    return Status::InvalidArgument("weight must be finite and >= 0");
  }
  return Status::OK();
}

Status PeekEventEndpoints(std::string_view u, std::string_view v,
                          EventIdMode id_mode, const NodeVocabulary* vocabulary,
                          EventIdMode* mode, TimestampedEvent* event) {
  *mode = vocabulary == nullptr ? EventIdMode::kInteger : id_mode;
  if (*mode == EventIdMode::kAuto) {
    *mode = LooksLikeIntegerId(u) && LooksLikeIntegerId(v)
                ? EventIdMode::kInteger
                : EventIdMode::kNamed;
  }
  if (*mode == EventIdMode::kInteger) {
    int64_t u_id = 0;
    int64_t v_id = 0;
    if (!TokenToInt64(u, &u_id) || !TokenToInt64(v, &v_id) || u_id < 0 ||
        v_id < 0) {
      return Status::InvalidArgument("malformed event");
    }
    event->u = static_cast<NodeId>(u_id);
    event->v = static_cast<NodeId>(v_id);
    return Status::OK();
  }
  CAD_RETURN_NOT_OK(NodeVocabulary::ValidateNodeName(u));
  CAD_RETURN_NOT_OK(NodeVocabulary::ValidateNodeName(v));
  // New names take the next free ids in order, as interning u then v would.
  size_t next_id = vocabulary->size();
  const auto resolve = [vocabulary, &next_id](std::string_view name) {
    const std::optional<NodeId> known = vocabulary->Find(name);
    return known.has_value() ? size_t{*known} : next_id++;
  };
  const size_t u_id = resolve(u);
  const size_t v_id = v == u ? u_id : resolve(v);
  if (std::max(u_id, v_id) > std::numeric_limits<NodeId>::max()) {
    return Status::InvalidArgument("node vocabulary exceeds the NodeId range");
  }
  event->u = static_cast<NodeId>(u_id);
  event->v = static_cast<NodeId>(v_id);
  return Status::OK();
}

void CommitEventEndpoints(std::string_view u, std::string_view v,
                          EventIdMode mode, const TimestampedEvent& event,
                          EventIdMode* id_mode, NodeVocabulary* vocabulary) {
  if (vocabulary == nullptr) return;
  *id_mode = mode;
  if (mode != EventIdMode::kNamed) return;
  // Peeked ids at or past the vocabulary's end are the new names.
  for (const auto& [name, id] :
       {std::pair(u, event.u), std::pair(v, event.v)}) {
    if (id < vocabulary->size()) continue;
    const Result<NodeId> interned = vocabulary->Intern(name);
    CAD_CHECK(interned.ok() && *interned == id);
  }
}

Result<TemporalGraphSequence> AggregateEventStream(
    const std::vector<TimestampedEvent>& events,
    const EventAggregationOptions& options) {
  if (!(options.window_length > 0.0) ||
      !std::isfinite(options.window_length)) {
    return Status::InvalidArgument("window_length must be positive");
  }
  if (!std::isnan(options.start_time) && !std::isfinite(options.start_time)) {
    return Status::InvalidArgument("start_time must be finite when set");
  }
  // Resolve the node count and the time origin.
  size_t num_nodes = options.num_nodes;
  double start = options.start_time;
  for (const TimestampedEvent& event : events) {
    if (event.u == event.v) {
      return Status::InvalidArgument("self-loop event at node " +
                                     std::to_string(event.u));
    }
    CAD_RETURN_NOT_OK(ValidateEventValues(event.timestamp, event.weight));
    if (options.num_nodes == 0) {
      num_nodes = std::max<size_t>(num_nodes,
                                   std::max(event.u, event.v) + size_t{1});
    } else if (event.u >= num_nodes || event.v >= num_nodes) {
      return Status::OutOfRange("event endpoint exceeds num_nodes");
    }
    if (std::isnan(options.start_time)) {
      start = std::isnan(start) ? event.timestamp
                                : std::min(start, event.timestamp);
    }
  }
  if (events.empty() && std::isnan(start)) start = 0.0;

  size_t num_windows = options.num_windows;
  if (num_windows == 0) {
    // Only events at or after the start can open a window. With an explicit
    // start_time every event may precede it; `last - start` then goes
    // negative and the old floor-then-cast wrapped to ~2^64 windows.
    double last_in_range = -std::numeric_limits<double>::infinity();
    for (const TimestampedEvent& event : events) {
      if (event.timestamp >= start) {
        last_in_range = std::max(last_in_range, event.timestamp);
      }
    }
    if (std::isinf(last_in_range)) {
      num_windows = 1;  // no event in range: same shape as the empty stream
    } else {
      const double span = (last_in_range - start) / options.window_length;
      if (!(span < kMaxDerivedWindows)) {
        return Status::InvalidArgument(
            "event span needs more than 1e12 windows; check start_time and "
            "window_length or set num_windows explicitly");
      }
      num_windows = static_cast<size_t>(std::floor(span)) + 1;
    }
  }

  std::vector<WeightedGraph> snapshots(num_windows, WeightedGraph(num_nodes));
  for (const TimestampedEvent& event : events) {
    const double offset = event.timestamp - start;
    if (offset < 0.0) continue;  // before the configured start: dropped
    const auto window =
        static_cast<size_t>(std::floor(offset / options.window_length));
    if (window >= num_windows) continue;  // after the configured end
    CAD_RETURN_NOT_OK(
        snapshots[window].AddEdgeWeight(event.u, event.v, event.weight));
  }

  TemporalGraphSequence sequence(num_nodes);
  for (WeightedGraph& snapshot : snapshots) {
    CAD_RETURN_NOT_OK(sequence.Append(std::move(snapshot)));
  }
  return sequence;
}

EventStreamReader::EventStreamReader(std::istream* in,
                                     EventErrorPolicy policy,
                                     NodeVocabulary* vocabulary,
                                     EventIdMode id_mode)
    : in_(in), policy_(policy), vocabulary_(vocabulary), id_mode_(id_mode) {
  CAD_CHECK(in != nullptr);
  // Named interpretation needs somewhere to put the names.
  if (vocabulary_ == nullptr) id_mode_ = EventIdMode::kInteger;
}

Result<std::optional<TimestampedEvent>> EventStreamReader::Next() {
  while (true) {
    Result<std::optional<EventRecord>> record = NextRecord();
    if (!record.ok()) return record.status();
    if (!record->has_value()) return std::optional<TimestampedEvent>();
    const EventRecord& fields = **record;
    TimestampedEvent event{0, 0, fields.timestamp, fields.weight};
    EventIdMode mode = EventIdMode::kAuto;
    const Status resolved = PeekEventEndpoints(fields.u, fields.v, id_mode_,
                                               vocabulary_, &mode, &event);
    if (resolved.ok()) {
      CommitEventEndpoints(fields.u, fields.v, mode, event, &id_mode_,
                           vocabulary_);
      return std::optional<TimestampedEvent>(event);
    }
    CAD_RETURN_NOT_OK(RejectLine(Status::InvalidArgument(
        "line " + std::to_string(line_number_) + ": " + resolved.message())));
  }
}

Result<std::optional<EventRecord>> EventStreamReader::NextRecord() {
  while (std::getline(*in_, line_)) {
    ++line_number_;
    const std::string_view stripped = StripWhitespace(line_);
    if (stripped.empty() || stripped[0] == '#') continue;
    Result<EventRecord> record =
        ParseEventRecord(TokenizeLine(stripped), line_number_);
    if (record.ok()) return std::optional<EventRecord>(*record);
    CAD_RETURN_NOT_OK(RejectLine(record.status()));
  }
  // getline stopped: distinguish clean EOF from a mid-file read failure,
  // which would otherwise silently truncate the stream.
  if (in_->bad()) {
    return Status::IoError("event stream read failed at line " +
                           std::to_string(line_number_));
  }
  return std::optional<EventRecord>();
}

Status EventStreamReader::RejectLine(const Status& status) {
  if (policy_ == EventErrorPolicy::kStrict) return status;
  ++events_rejected_parse_;
  CAD_METRIC_INC("io.events_rejected_parse");
  CAD_METRIC_INC("io.events_rejected");
  return Status::OK();
}

Result<std::vector<TimestampedEvent>> ReadEventStream(
    std::istream* in, EventErrorPolicy policy, size_t* events_rejected,
    NodeVocabulary* vocabulary, EventIdMode id_mode) {
  EventStreamReader reader(in, policy, vocabulary, id_mode);
  std::vector<TimestampedEvent> events;
  while (true) {
    std::optional<TimestampedEvent> event;
    CAD_ASSIGN_OR_RETURN(event, reader.Next());
    if (!event.has_value()) break;
    events.push_back(*event);
  }
  if (events_rejected != nullptr) {
    *events_rejected = reader.events_rejected_parse();
  }
  return events;
}

Result<std::vector<TimestampedEvent>> ReadEventStreamFile(
    const std::string& path, EventErrorPolicy policy, size_t* events_rejected,
    NodeVocabulary* vocabulary, EventIdMode id_mode) {
  std::ifstream file(path);
  if (!file.is_open()) {
    return Status::IoError("cannot open for reading: " + path);
  }
  return ReadEventStream(&file, policy, events_rejected, vocabulary, id_mode);
}

Result<EventWindowAggregator> EventWindowAggregator::Create(
    const EventWindowOptions& options) {
  if (!(options.window_length > 0.0) ||
      !std::isfinite(options.window_length)) {
    return Status::InvalidArgument("window_length must be positive");
  }
  if (!std::isfinite(options.start_time)) {
    return Status::InvalidArgument("start_time must be finite");
  }
  if (options.num_nodes == 0 && !options.grow_nodes) {
    return Status::InvalidArgument("num_nodes must be > 0 unless grow_nodes");
  }
  return EventWindowAggregator(options);
}

Result<size_t> EventWindowAggregator::WindowIndex(double timestamp) const {
  if (!std::isfinite(timestamp)) {
    return Status::InvalidArgument("non-finite timestamp");
  }
  const double offset = timestamp - options_.start_time;
  if (offset < 0.0) {
    return Status::InvalidArgument("timestamp precedes start_time");
  }
  const double span = offset / options_.window_length;
  if (!(span < kMaxDerivedWindows)) {
    return Status::InvalidArgument("timestamp too far past start_time");
  }
  return static_cast<size_t>(std::floor(span));
}

Status EventWindowAggregator::CheckEvent(
    const TimestampedEvent& event) const {
  if (event.u == event.v) {
    return Status::InvalidArgument("self-loop event at node " +
                                   std::to_string(event.u));
  }
  if (!options_.grow_nodes &&
      (event.u >= current_.num_nodes() || event.v >= current_.num_nodes())) {
    return Status::OutOfRange("event endpoint exceeds num_nodes");
  }
  return ValidateEventValues(event.timestamp, event.weight);
}

Status EventWindowAggregator::Add(const TimestampedEvent& event,
                                  std::vector<WeightedGraph>* completed) {
  CAD_CHECK(completed != nullptr);
  CAD_RETURN_NOT_OK(CheckEvent(event));
  size_t window = 0;
  CAD_ASSIGN_OR_RETURN(window, WindowIndex(event.timestamp));
  if (window < current_window_) {
    return Status::InvalidArgument(
        "out-of-order event: window " + std::to_string(window) +
        " while window " + std::to_string(current_window_) + " is open");
  }
  while (current_window_ < window) {
    // A snapshot closes at the size the node set had reached; the set never
    // shrinks, so later windows (and monitors growing their previous
    // snapshot) see non-decreasing sizes.
    const size_t nodes_at_close = current_.num_nodes();
    current_.Freeze();
    completed->push_back(std::move(current_));
    current_ = WeightedGraph(nodes_at_close);
    ++current_window_;
  }
  if (options_.grow_nodes) {
    const size_t needed =
        static_cast<size_t>(std::max(event.u, event.v)) + size_t{1};
    if (needed > current_.num_nodes()) {
      CAD_RETURN_NOT_OK(current_.GrowTo(needed));
    }
  }
  return current_.AddEdgeWeight(event.u, event.v, event.weight);
}

WeightedGraph EventWindowAggregator::Flush() {
  const size_t nodes_at_close = current_.num_nodes();
  current_.Freeze();
  WeightedGraph closed = std::move(current_);
  current_ = WeightedGraph(nodes_at_close);
  ++current_window_;
  return closed;
}

}  // namespace cad
