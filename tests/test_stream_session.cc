// StreamSession tests (src/app/stream_session.h): cad_stream's path (an
// EventStreamReader feeding a session) and the server's path (a Tenant fed
// wire events) must write byte-identical report CSVs and agree on the node
// count, for clean, dirty, integer and killed-and-resumed streams; and every
// event the session drops is counted once.

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "app/stream_session.h"
#include "common/strings.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "server/tenant.h"

namespace cad {
namespace {

using server::Tenant;
using server::TenantOptions;
using server::WireEvent;

/// mkdtemp-backed scratch directory; removes its contents on destruction.
class ScopedTempDir {
 public:
  ScopedTempDir() {
    std::string pattern = ::testing::TempDir() + "/cad_session_XXXXXX";
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    CAD_CHECK(::mkdtemp(buffer.data()) != nullptr);
    path_ = buffer.data();
  }
  ~ScopedTempDir() {
    const std::string cleanup = "rm -rf '" + path_ + "'";
    (void)::system(cleanup.c_str());  // best-effort scratch cleanup
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Event text over `names` nodes (n0, n1, ... or bare integers), `windows`
/// windows of `per_window` events each, from a fixed xorshift sequence.
std::string MakeEventText(size_t names, size_t windows, size_t per_window,
                          bool integer_ids) {
  uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const auto label = [integer_ids](size_t id) {
    return (integer_ids ? "" : "n") + std::to_string(id);
  };
  std::string text = "# generated\n";
  for (size_t w = 0; w < windows; ++w) {
    for (size_t i = 0; i < per_window; ++i) {
      const size_t u = next() % names;
      size_t v = next() % names;
      if (v == u) v = (v + 1) % names;
      text += label(u) + " " + label(v) + " " +
              FormatDouble(static_cast<double>(w) +
                               (0.5 + static_cast<double>(i)) /
                                   (2.0 * static_cast<double>(per_window)),
                           9) +
              "\n";
    }
  }
  return text;
}

StreamSessionOptions SkipOptions() {
  StreamSessionOptions options;
  options.monitor.detector.engine = CommuteEngine::kExact;
  options.monitor.nodes_per_transition = 2.0;
  options.monitor.warmup_transitions = 2;
  options.error_policy = EventErrorPolicy::kSkip;
  return options;
}

/// cad_stream's sink: rows to a string, plain checkpoints to a string.
class StringSink : public StreamSessionSink {
 public:
  Status WriteRows(std::vector<std::string> rows) override {
    for (const std::string& row : rows) csv += row + "\n";
    return Status::OK();
  }
  Status WriteCheckpoint() override {
    std::ostringstream out;
    CAD_RETURN_NOT_OK(session->SaveCheckpoint(&out));
    checkpoint = out.str();
    return Status::OK();
  }

  StreamSession* session = nullptr;
  std::string csv;
  std::string checkpoint;
};

struct StreamRun {
  std::string csv;
  size_t num_nodes = 0;
  size_t vocabulary_size = 0;
  StreamSessionCounts counts;
  size_t reader_rejected = 0;
  /// Last interval checkpoint (plain monitor format).
  std::string checkpoint;
};

/// The cad_stream path: EventStreamReader -> StreamSession over
/// `num_nodes` nodes (0 = grow). Resumes from `resume_from` when it is
/// non-empty; stops after `max_snapshots` observed windows (0 = run to the
/// end and finish), like --max_snapshots.
StreamRun RunStreamPath(const std::string& text,
                        const StreamSessionOptions& options,
                        size_t num_nodes = 0,
                        const std::string& resume_from = "",
                        size_t max_snapshots = 0) {
  StringSink sink;
  std::istringstream checkpoint(resume_from);
  Result<std::unique_ptr<StreamSession>> created =
      StreamSession::Create(options, num_nodes, &sink,
                            resume_from.empty() ? nullptr : &checkpoint);
  CAD_CHECK(created.ok());
  StreamSession& session = **created;
  sink.session = &session;
  if (resume_from.empty()) sink.csv = kReportCsvHeader;
  std::istringstream in(text);
  EventStreamReader reader(&in, options.error_policy);
  bool stopped = false;
  while (!stopped) {
    Result<std::optional<EventRecord>> next = reader.NextRecord();
    CAD_CHECK(next.ok());
    if (!next->has_value()) break;
    const EventRecord& record = **next;
    CAD_CHECK(session
                  .AddTokens(record.u, record.v, record.timestamp,
                             record.weight)
                  .ok());
    while (session.has_pending_window()) {
      CAD_CHECK(session.ObserveNextWindow().ok());
      if (max_snapshots > 0 &&
          session.monitor().num_snapshots() >= max_snapshots) {
        stopped = true;
        break;
      }
    }
  }
  if (!stopped) CAD_CHECK(session.Finish().ok());
  return {sink.csv,          session.num_nodes(),
          session.vocabulary().size(), session.counts(),
          reader.events_rejected_parse(), sink.checkpoint};
}

/// Wire events the way cad_server_client sends an event file: raw endpoint
/// tokens plus parsed doubles.
std::vector<WireEvent> ToWireEvents(const std::string& text) {
  std::vector<WireEvent> events;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const std::vector<std::string> fields = SplitTokens(stripped);
    CAD_CHECK(fields.size() == 3 || fields.size() == 4);
    WireEvent event;
    event.u = fields[0];
    event.v = fields[1];
    Result<double> timestamp = ParseDouble(fields[2]);
    CAD_CHECK(timestamp.ok());
    event.timestamp = *timestamp;
    if (fields.size() == 4) {
      Result<double> weight = ParseDouble(fields[3]);
      CAD_CHECK(weight.ok());
      event.weight = *weight;
    }
    events.push_back(std::move(event));
  }
  return events;
}

/// Pulls the integer after `"key":` out of a stats JSON blob.
int64_t JsonInt(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  CAD_CHECK(pos != std::string::npos);
  return std::atoll(json.c_str() + pos + needle.size());
}

struct TenantRun {
  std::string csv;
  size_t num_nodes = 0;
  std::string stats;
};

/// The server path: one Tenant fed the wire events in batches of 64, then
/// finished. `options` must carry an output path.
TenantRun RunTenantPath(const std::vector<WireEvent>& events,
                        const TenantOptions& options) {
  Result<std::unique_ptr<Tenant>> tenant = Tenant::Create("t", options);
  CAD_CHECK(tenant.ok());
  for (size_t i = 0; i < events.size(); i += 64) {
    const std::vector<WireEvent> batch(
        events.begin() + i,
        events.begin() + std::min(events.size(), i + 64));
    CAD_CHECK((*tenant)->ApplyBatch(batch).ok());
  }
  CAD_CHECK((*tenant)->Finish().ok());
  TenantRun run;
  run.num_nodes = (*tenant)->NumNodesForReply();
  run.stats = (*tenant)->StatsJson();
  tenant->reset();  // closes the CSV
  run.csv = ReadFile(options.output_path);
  return run;
}

/// Runs `text` through both front-ends under the skip policy and requires
/// the same CSV bytes and node count.
void ExpectParity(const std::string& text, size_t expected_nodes) {
  ScopedTempDir dir;
  TenantOptions tenant_options;
  tenant_options.session = SkipOptions();
  tenant_options.output_path = dir.path() + "/t.csv";
  const StreamRun stream = RunStreamPath(text, SkipOptions());
  const TenantRun tenant = RunTenantPath(ToWireEvents(text), tenant_options);
  // Non-vacuous: the stream reported anomalies.
  EXPECT_GT(stream.csv.size(), sizeof(kReportCsvHeader));
  EXPECT_EQ(stream.csv, tenant.csv);
  EXPECT_EQ(stream.num_nodes, expected_nodes);
  EXPECT_EQ(tenant.num_nodes, expected_nodes);
}

TEST(StreamSessionParityTest, CleanNamedStream) {
  ExpectParity(MakeEventText(30, 16, 30, /*integer_ids=*/false), 30);
}

TEST(StreamSessionParityTest, RejectedFirstRecordDoesNotFixTheIdMode) {
  // An integer-looking first record that is rejected (non-finite
  // timestamp) must not commit the stream to integer ids: the named events
  // after it are accepted by both front-ends.
  ExpectParity("1 2 inf\n" + MakeEventText(30, 16, 30, false), 30);
}

TEST(StreamSessionParityTest, EventsTheSessionRefusesDoNotFixTheIdMode) {
  // Each record parses, but the session refuses it after resolving its
  // endpoints: a window index out of range, a self-loop, a timestamp
  // before start_time. None decides the id mode or interns a name.
  const std::string refused = "1 2 1e300\n1 1 0.5\n3 4 -0.5\n";
  ExpectParity(refused + MakeEventText(30, 16, 30, false), 30);
  ExpectParity("a b 1e300\nc c 0.5\n" + MakeEventText(30, 16, 30, false),
               30);
  // The same records in front of an integer stream leave it integer-keyed.
  ExpectParity("a b 1e300\nc c 0.5\nd e -0.5\n" +
                   MakeEventText(24, 16, 30, /*integer_ids=*/true),
               24);
  const StreamRun run = RunStreamPath(
      "a b 1e300\nc c 0.5\n" + MakeEventText(30, 16, 30, false),
      SkipOptions());
  EXPECT_EQ(run.vocabulary_size, 30u);
  EXPECT_EQ(run.counts.rejected, 2u);
}

TEST(StreamSessionParityTest, BadSecondEndpointInternsNeitherName) {
  // '#bob' is not a valid name; 'zed' must not be interned either, so the
  // vocabulary (and the ids every later name gets) stays the same.
  const std::string body = MakeEventText(30, 16, 30, false);
  const size_t middle = body.find('\n', body.size() / 2) + 1;
  const std::string text = "zed #bob 0.0001\n" + body.substr(0, middle) +
                           "zed2 #bob2 8.0\n" + body.substr(middle);
  ExpectParity(text, 30);
  EXPECT_EQ(RunStreamPath(text, SkipOptions()).vocabulary_size, 30u);
}

TEST(StreamSessionParityTest, IntegerStream) {
  ExpectParity(MakeEventText(24, 16, 30, /*integer_ids=*/true), 24);
}

/// Kills `text` at window 6 and resumes it through the cad_stream path,
/// and kills a tenant half way and restarts it; both must reproduce the
/// uninterrupted run's CSV.
void ExpectKillAndResumeParity(const std::string& text) {
  StreamSessionOptions options = SkipOptions();
  options.checkpoint_every = 3;
  const StreamRun full = RunStreamPath(text, options);
  ASSERT_GT(full.csv.size(), sizeof(kReportCsvHeader));

  // cad_stream: stop at the window-6 checkpoint (--max_snapshots 6), resume
  // from it, and concatenate the two parts.
  const StreamRun part1 = RunStreamPath(text, options, 0, "", 6);
  ASSERT_FALSE(part1.checkpoint.empty());
  const StreamRun part2 = RunStreamPath(text, options, 0, part1.checkpoint);
  EXPECT_GT(part2.counts.skipped_resume, 0u);
  EXPECT_EQ(part1.csv + part2.csv, full.csv);

  // Tenant: half the stream, then destroyed without Finish (only interval
  // checkpoints survive, as after kill -9); the restarted tenant resumes,
  // truncates its CSV to the envelope's offset and gets the whole replay.
  ScopedTempDir dir;
  TenantOptions tenant_options;
  tenant_options.session = options;
  tenant_options.checkpoint_path = dir.path() + "/t.ckpt";
  tenant_options.output_path = dir.path() + "/t.csv";
  const std::vector<WireEvent> events = ToWireEvents(text);
  {
    Result<std::unique_ptr<Tenant>> tenant =
        Tenant::Create("t", tenant_options);
    ASSERT_TRUE(tenant.ok());
    const std::vector<WireEvent> half(events.begin(),
                                      events.begin() + events.size() / 2);
    ASSERT_TRUE((*tenant)->ApplyBatch(half).ok());
  }
  Result<std::unique_ptr<Tenant>> resumed =
      Tenant::Create("t", tenant_options);
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE((*resumed)->resumed());
  EXPECT_GE((*resumed)->first_window(), 3u);
  ASSERT_TRUE((*resumed)->ApplyBatch(events).ok());
  ASSERT_TRUE((*resumed)->Finish().ok());
  EXPECT_EQ(ReadFile(tenant_options.output_path), full.csv);
  EXPECT_EQ((*resumed)->NumNodesForReply(), full.num_nodes);
}

TEST(StreamSessionParityTest, KillAndResumeThroughEachFrontEnd) {
  ExpectKillAndResumeParity("1 2 inf\n" + MakeEventText(30, 16, 30, false));
}

TEST(StreamSessionParityTest, KillAndResumeIntegerStreamAfterRefusedNames) {
  // The refused named records sit in windows the resumed runs skip. They
  // must be refused there too, or the resumed cad_stream path (whose plain
  // checkpoint does not store the id mode) would decide on named ids.
  ExpectKillAndResumeParity("a a 0.5\nb c 1e300\n" +
                            MakeEventText(24, 16, 30, /*integer_ids=*/true));
}

// --- rejection accounting ---------------------------------------------------

TEST(StreamSessionRejectionTest, WindowIndexOutOfRangeIsCountedOnce) {
  // 1e300 parses and is finite, but its window index is out of range: the
  // reader accepts the line and the session rejects the event.
  const std::string body = MakeEventText(30, 8, 20, false);
  const std::string text = "n1 n2 1e300\n" + body;
#ifndef CAD_OBS_DISABLED
  obs::SetMetricsEnabled(true);
  obs::ResetMetrics();
#endif
  const StreamRun stream = RunStreamPath(text, SkipOptions());
#ifndef CAD_OBS_DISABLED
  uint64_t metric = 0;
  for (const auto& [name, value] : obs::SnapshotMetrics().counters) {
    if (name == "io.events_rejected") metric = value;
  }
  obs::SetMetricsEnabled(false);
  EXPECT_EQ(metric, 1u);
#endif
  EXPECT_EQ(stream.reader_rejected, 0u);
  EXPECT_EQ(stream.counts.rejected, 1u);
  EXPECT_EQ(stream.counts.rejected_range, 0u);
  EXPECT_EQ(stream.counts.fed, 8u * 20u);

  ScopedTempDir dir;
  TenantOptions tenant_options;
  tenant_options.session = SkipOptions();
  tenant_options.output_path = dir.path() + "/t.csv";
  const TenantRun tenant = RunTenantPath(ToWireEvents(text), tenant_options);
  EXPECT_EQ(JsonInt(tenant.stats, "rejected_parse"), 1);
  EXPECT_EQ(JsonInt(tenant.stats, "fed"), 8 * 20);
  EXPECT_EQ(stream.csv, tenant.csv);
}

TEST(StreamSessionRejectionTest, EndpointPastFixedNodeSetCountsAsRange) {
  const StreamRun run = RunStreamPath(MakeEventText(10, 6, 20, true) +
                                          "3 12 6.5\n",
                                      SkipOptions(), /*num_nodes=*/10);
  EXPECT_EQ(run.counts.rejected, 1u);
  EXPECT_EQ(run.counts.rejected_range, 1u);
}

TEST(StreamSessionRejectionTest, NamesPastFixedNodeSetAreNotInterned) {
  StringSink sink;
  Result<std::unique_ptr<StreamSession>> session =
      StreamSession::Create(SkipOptions(), /*num_nodes=*/3, &sink);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->AddTokens("a", "b", 0.5, 1.0).ok());
  // 'd' would be node 3 of 3: refused, and neither name is interned...
  ASSERT_TRUE((*session)->AddTokens("c", "d", 0.6, 1.0).ok());
  EXPECT_EQ((*session)->counts().rejected_range, 1u);
  EXPECT_EQ((*session)->vocabulary().size(), 2u);
  // ...so 'c' still gets the last free id.
  ASSERT_TRUE((*session)->AddTokens("c", "a", 0.7, 1.0).ok());
  EXPECT_EQ((*session)->counts().fed, 2u);
  EXPECT_EQ((*session)->vocabulary().size(), 3u);
}

TEST(StreamSessionRejectionTest, StrictPolicyReturnsTheErrorUntouched) {
  StringSink sink;
  StreamSessionOptions options = SkipOptions();
  options.error_policy = EventErrorPolicy::kStrict;
  Result<std::unique_ptr<StreamSession>> session =
      StreamSession::Create(options, /*num_nodes=*/0, &sink);
  ASSERT_TRUE(session.ok());
  const Status bad = (*session)->AddTokens(
      "1", "2", std::numeric_limits<double>::infinity(), 1.0);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  const Status bad_name = (*session)->AddTokens("zed", "#bob", 0.5, 1.0);
  EXPECT_EQ(bad_name.code(), StatusCode::kInvalidArgument);
  // Neither rejected event decided the id mode or interned a name.
  EXPECT_EQ((*session)->id_mode(), EventIdMode::kAuto);
  EXPECT_TRUE((*session)->vocabulary().empty());
  EXPECT_EQ((*session)->counts().rejected, 0u);
  ASSERT_TRUE((*session)->AddTokens("alice", "bob", 0.5, 1.0).ok());
  EXPECT_EQ((*session)->id_mode(), EventIdMode::kNamed);
}

TEST(StreamSessionTest, StaleCheckpointIsIoErrorAndNothingIsFlushed) {
  StreamSessionOptions options = SkipOptions();
  options.checkpoint_every = 4;
  const std::string text = MakeEventText(12, 10, 20, true);
  const StreamRun run = RunStreamPath(text, options);
  ASSERT_FALSE(run.checkpoint.empty());

  StringSink sink;
  std::istringstream checkpoint(run.checkpoint);
  Result<std::unique_ptr<StreamSession>> session =
      StreamSession::Create(options, /*num_nodes=*/0, &sink, &checkpoint);
  ASSERT_TRUE(session.ok());
  sink.session = session->get();
  // Only windows 0-1 of the stream: the checkpoint resumes at window 8.
  ASSERT_TRUE((*session)->AddTokens("0", "1", 0.5, 1.0).ok());
  ASSERT_TRUE((*session)->AddTokens("2", "3", 1.5, 1.0).ok());
  const Status finished = (*session)->Finish();
  EXPECT_EQ(finished.code(), StatusCode::kIoError);
  EXPECT_NE(finished.message().find("ahead of the event stream"),
            std::string::npos)
      << finished.ToString();
  EXPECT_TRUE(sink.csv.empty());
}

TEST(StreamSessionTest, FormatReportRowRendersNamesAndNineDigits) {
  Result<NodeVocabulary> names = NodeVocabulary::FromNames({"alice", "bob"});
  ASSERT_TRUE(names.ok());
  ScoredEdge edge;
  edge.pair = {0, 1};
  edge.score = 1.0 / 3.0;
  edge.weight_delta = -2.0;
  edge.commute_delta = 0.125;
  EXPECT_EQ(FormatReportRow(7, edge, &*names),
            "7,alice,bob,0.333333333,-2,0.125");
  EXPECT_EQ(FormatReportRow(7, edge, nullptr),
            "7,0,1,0.333333333,-2,0.125");
}

}  // namespace
}  // namespace cad
