#include "app/stream_session.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "common/timer.h"
#include "obs/obs.h"

namespace cad {

std::string FormatReportRow(size_t transition, const ScoredEdge& edge,
                            const NodeVocabulary* vocabulary) {
  return std::to_string(transition) + "," +
         NodeLabel(vocabulary, edge.pair.u) + "," +
         NodeLabel(vocabulary, edge.pair.v) + "," +
         FormatDouble(edge.score, 9) + "," +
         FormatDouble(edge.weight_delta, 9) + "," +
         FormatDouble(edge.commute_delta, 9);
}

void StreamSessionFlags::Register(FlagParser* flags) {
  flags->AddDouble("window", &window, "window length in timestamp units");
  flags->AddDouble("start_time", &start_time, "timestamp of window 0's start");
  flags->AddInt64("checkpoint_every", &checkpoint_every,
                  "checkpoint after every N observed windows");
  flags->AddString("error_policy", &error_policy,
                   "malformed-event handling: strict (the first bad event "
                   "fails the stream) or skip (drop and count)");
  flags->AddDouble("l", &l, "target anomalous nodes per transition");
  flags->AddInt64("warmup", &warmup,
                  "transitions observed before reports are emitted");
  flags->AddInt64("max_history", &max_history,
                  "calibration window in transitions (0 = unbounded)");
  flags->AddString("engine", &engine, "commute engine: auto, exact, or approx");
  flags->AddInt64("k", &k, "embedding dimension for the approximate engine");
  flags->AddInt64("seed", &seed, "seed for the approximate engine");
  flags->AddBool("warm_start", &warm_start,
                 "carry each window's embedding and IC(0) factor into the "
                 "next (approximate engine)");
  flags->AddDouble("refactor_threshold", &refactor_threshold,
                   "IC(0) staleness trigger under --warm_start");
  flags->AddBool("incremental", &incremental,
                 "maintain each window's commute state incrementally from "
                 "the previous window's (implies --warm_start; DESIGN.md "
                 "§12)");
  flags->AddDouble("churn_threshold", &churn_threshold,
                   "edge-churn ratio above which --incremental falls back "
                   "to a full rebuild for that window");
  flags->AddDouble("incremental_tolerance", &incremental_tolerance,
                   "relative-residual bound for reusing a cached embedding "
                   "column under --incremental (approximate engine)");
}

Status StreamSessionFlags::Apply(StreamSessionOptions* options) const {
  options->window_length = window;
  options->start_time = start_time;
  options->checkpoint_every = static_cast<size_t>(checkpoint_every);
  if (error_policy == "skip") {
    options->error_policy = EventErrorPolicy::kSkip;
  } else if (error_policy == "strict") {
    options->error_policy = EventErrorPolicy::kStrict;
  } else {
    return Status::InvalidArgument("unknown --error_policy '" + error_policy +
                                   "'");
  }
  OnlineMonitorOptions& monitor = options->monitor;
  if (engine == "exact") {
    monitor.detector.engine = CommuteEngine::kExact;
  } else if (engine == "approx") {
    monitor.detector.engine = CommuteEngine::kApprox;
  } else if (engine != "auto") {
    return Status::InvalidArgument("unknown --engine '" + engine + "'");
  }
  monitor.nodes_per_transition = l;
  monitor.warmup_transitions = static_cast<size_t>(warmup);
  monitor.max_history = static_cast<size_t>(max_history);
  monitor.detector.approx.embedding_dim = static_cast<size_t>(k);
  monitor.detector.approx.seed = static_cast<uint64_t>(seed);
  monitor.detector.approx.warm_start = warm_start;
  monitor.detector.approx.refactor_threshold = refactor_threshold;
  monitor.incremental = incremental;
  monitor.detector.churn_threshold = churn_threshold;
  monitor.detector.approx.incremental_tolerance = incremental_tolerance;
  return Status::OK();
}

StreamSession::StreamSession(StreamSessionOptions options,
                             StreamSessionSink* sink)
    : options_(std::move(options)), sink_(sink), monitor_(options_.monitor) {}

Result<std::unique_ptr<StreamSession>> StreamSession::Create(
    StreamSessionOptions options, size_t num_nodes, StreamSessionSink* sink,
    std::istream* checkpoint, EventIdMode id_mode) {
  CAD_CHECK(sink != nullptr);
  std::unique_ptr<StreamSession> session(
      new StreamSession(std::move(options), sink));
  OnlineCadMonitor& monitor = session->monitor_;
  if (checkpoint != nullptr) {
    CAD_RETURN_NOT_OK(monitor.LoadCheckpoint(checkpoint));
    // Replaying the stream prefix re-interns every name to the same id.
    if (monitor.vocabulary() != nullptr) {
      session->vocab_ = *monitor.vocabulary();
    }
    // A plain checkpoint does not store the id mode (kAuto): the skipped
    // events decide it again, as they did in the run that checkpointed.
    session->id_mode_ = id_mode;
    session->resumed_ = true;
    session->first_window_ = monitor.num_snapshots();
  }
  const StreamSessionOptions& opts = session->options_;
  EventWindowOptions window_options;
  window_options.window_length = opts.window_length;
  window_options.start_time = opts.start_time;
  window_options.grow_nodes = num_nodes == 0;
  // A resumed grow-mode stream starts at the checkpoint's high-water mark:
  // events of already-observed windows are skipped, so they can no longer
  // grow it. The node set keeps growing from there.
  window_options.num_nodes =
      window_options.grow_nodes
          ? std::max(session->vocab_.size(), monitor.num_nodes())
          : num_nodes;
  window_options.first_window = session->first_window_;
  Result<EventWindowAggregator> aggregator =
      EventWindowAggregator::Create(window_options);
  if (!aggregator.ok()) return aggregator.status();
  session->aggregator_.emplace(std::move(*aggregator));
  return session;
}

Status StreamSession::SaveCheckpoint(std::ostream* out) {
  // Integer streams keep format v1 byte for byte: no vocabulary section.
  if (!vocab_.empty()) monitor_.SetVocabulary(vocab_);
  return monitor_.SaveCheckpoint(out);
}

Status StreamSession::Reject(const Status& status) {
  if (options_.error_policy == EventErrorPolicy::kStrict) return status;
  ++counts_.rejected;
  CAD_METRIC_INC("io.events_rejected");
  // Endpoints past a fixed node set are data loss of a different kind than
  // malformed records; counting them apart makes a too-small node set
  // diagnosable (grow mode grows the window instead).
  if (status.code() == StatusCode::kOutOfRange) {
    ++counts_.rejected_range;
    CAD_METRIC_INC("io.events_rejected_range");
  } else {
    CAD_METRIC_INC("io.events_rejected_parse");
  }
  return Status::OK();
}

Status StreamSession::AddTokens(std::string_view u, std::string_view v,
                                double timestamp, double weight) {
  TimestampedEvent event{0, 0, timestamp, weight};
  EventIdMode mode = EventIdMode::kAuto;
  Status resolved = ValidateEventValues(timestamp, weight);
  if (resolved.ok()) {
    resolved = PeekEventEndpoints(u, v, id_mode_, &vocab_, &mode, &event);
  }
  if (!resolved.ok()) return Reject(resolved);
  Offered offered = Offered::kDropped;
  CAD_ASSIGN_OR_RETURN(offered, Offer(event));
  // Only an accepted event decides the id mode, and only a fed one interns:
  // the run that checkpointed interned the names of every event it fed, so
  // a skipped event's names are in the restored vocabulary already.
  if (offered == Offered::kFed) {
    CommitEventEndpoints(u, v, mode, event, &id_mode_, &vocab_);
  } else if (offered == Offered::kSkipped) {
    id_mode_ = mode;
  }
  return Status::OK();
}

Result<StreamSession::Offered> StreamSession::Offer(
    const TimestampedEvent& event) {
  const auto drop = [this](const Status& status) -> Result<Offered> {
    CAD_RETURN_NOT_OK(Reject(status));
    return Offered::kDropped;
  };
  Result<size_t> window = aggregator_->WindowIndex(event.timestamp);
  if (!window.ok()) {
    // Timestamps before start_time are dropped, matching the batch
    // aggregator; anything else (non-finite, absurdly far out) follows the
    // error policy.
    if (event.timestamp < options_.start_time) {
      ++counts_.before_start;
      return Offered::kDropped;
    }
    return drop(window.status());
  }
  if (!max_window_seen_.has_value() || *window > *max_window_seen_) {
    max_window_seen_ = *window;
  }
  if (*window < first_window_) {
    // Consumed by the run that checkpointed. The aggregator never sees it,
    // so its checks of the event alone run here: what that run rejected is
    // rejected again and cannot decide the id mode.
    const Status checked = aggregator_->CheckEvent(event);
    if (!checked.ok()) return drop(checked);
    ++counts_.skipped_resume;
    return Offered::kSkipped;
  }
  if (next_pending_ == pending_.size()) {
    pending_.clear();
    next_pending_ = 0;
  }
  const Status added = aggregator_->Add(event, &pending_);
  if (!added.ok()) return drop(added);
  ++counts_.fed;
  return Offered::kFed;
}

Status StreamSession::ObserveNextWindow() {
  CAD_CHECK(has_pending_window());
  const uint64_t start_ns = Timer::NowNanos();
  Result<std::optional<AnomalyReport>> report =
      monitor_.Observe(std::move(pending_[next_pending_++]));
  if (!report.ok()) return report.status();
  sink_->WindowObserved(Timer::NowNanos() - start_ns);
  if (report->has_value()) {
    const NodeVocabulary* vocabulary = vocab_.empty() ? nullptr : &vocab_;
    std::vector<std::string> rows;
    rows.reserve((*report)->edges.size());
    for (const ScoredEdge& edge : (*report)->edges) {
      rows.push_back(FormatReportRow((*report)->transition, edge, vocabulary));
    }
    CAD_RETURN_NOT_OK(sink_->WriteRows(std::move(rows)));
  }
  if (options_.checkpoint_every > 0 &&
      monitor_.num_snapshots() % options_.checkpoint_every == 0) {
    return sink_->WriteCheckpoint();
  }
  return Status::OK();
}

Status StreamSession::Finish() {
  CAD_CHECK(!has_pending_window());
  // Resuming at a window the stream never reaches means the stream and the
  // checkpoint do not belong together (another stream, or a different
  // window length or start time). Accepting it would re-feed the trailing
  // windows into monitor state that already holds them.
  if (resumed_) {
    const size_t stream_windows =
        max_window_seen_.has_value() ? *max_window_seen_ + 1 : 0;
    if (first_window_ > stream_windows) {
      return Status::IoError(
          "resume checkpoint is ahead of the event stream: it resumes at "
          "window " +
          std::to_string(first_window_) + " but the stream ends at " +
          (max_window_seen_.has_value()
               ? "window " + std::to_string(*max_window_seen_)
               : "no window at all") +
          "; wrong event stream, or mismatched window length/start time");
    }
  }
  // Close the in-progress window so the final (possibly partial) snapshot
  // is scored, matching the batch aggregation.
  if (resumed_ && counts_.fed == 0) return Status::OK();
  pending_.push_back(aggregator_->Flush());
  return ObserveNextWindow();
}

size_t StreamSession::num_nodes() const {
  return std::max(aggregator_->num_nodes(), monitor_.num_nodes());
}

}  // namespace cad
