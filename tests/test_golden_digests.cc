// Golden digests of the streaming pipeline's outputs.
//
// A seeded R-MAT sequence with fractional weights is turned into a shuffled
// event stream (every edge split into two fractional events) and fed through
// EventWindowAggregator -> OnlineCadMonitor, the way cad_stream runs it. The
// test hashes the report CSV bytes, every window's commute-time state
// (embedding or pseudoinverse bytes), every window's Laplacian CSR arrays,
// volume and weighted degrees, and every checkpoint file, and compares the
// hashes against committed constants.
//
// Fractional weights make the floating-point sums inside the graph (volume,
// weighted degrees, Laplacian diagonal) depend on their summation order, so
// an optimization that changes that order changes these digests even where
// integer-weight streams would not notice. The digests are the same at one
// and two threads.
//
// The approximate modes span the solver's configuration axes: embedding
// dimension (k = 16, 25 and 50, so the lockstep solver runs one, two and
// four column chunks), preconditioner (Jacobi, IC(0) through the cached
// factor, none) and the monitor's cache modes (stateless rebuild, warm start,
// incremental). Each digest also pins the run's total PCG iteration count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "commute/approx_commute.h"
#include "commute/exact_commute.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/online_monitor.h"
#include "datagen/rmat.h"
#include "io/event_stream.h"
#include "obs/obs.h"

namespace cad {
namespace {

/// 64-bit FNV-1a, fed incrementally.
class Fnv1a {
 public:
  void Add(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void AddVector(const std::vector<T>& values) {
    Add(values.data(), values.size() * sizeof(T));
  }
  void AddDouble(double value) { Add(&value, sizeof(value)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct Digests {
  uint64_t report = 0;
  uint64_t oracles = 0;
  uint64_t laplacians = 0;
  uint64_t checkpoints = 0;
  /// The run's pcg.iterations counter (not hashed, so a mismatch prints the
  /// two counts).
  uint64_t pcg_iterations = 0;
};

enum class Mode {
  kApproxIncremental,
  kApproxRebuild,
  kExact,
  kExactIncremental,
  /// Stateless rebuild at k = 50: several column chunks of uneven width.
  kApproxRebuildK50,
  /// Warm start with IC(0): the cached-factor path.
  kApproxIc0WarmStart,
  /// Unpreconditioned CG.
  kApproxNoPreconditioner,
  /// Warm start without incremental at k = 25 (the server_fleet monitor).
  kApproxWarmStartK25,
};

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kApproxIncremental:
      return "approx_incremental";
    case Mode::kApproxRebuild:
      return "approx_rebuild";
    case Mode::kExact:
      return "exact";
    case Mode::kExactIncremental:
      return "exact_incremental";
    case Mode::kApproxRebuildK50:
      return "approx_rebuild_k50";
    case Mode::kApproxIc0WarmStart:
      return "approx_ic0_warm_start";
    case Mode::kApproxNoPreconditioner:
      return "approx_no_preconditioner";
    case Mode::kApproxWarmStartK25:
      return "approx_warm_start_k25";
  }
  return "unknown";
}

constexpr size_t kNodes = 240;
constexpr size_t kWindows = 7;

/// The event stream: each snapshot's edges, every one split into two
/// fractional events, shuffled within the window.
std::vector<TimestampedEvent> MakeFractionalEvents() {
  RmatTemporalOptions options;
  options.base.num_nodes = kNodes;
  options.base.num_edges = 3000;
  options.base.min_weight = 0.25;
  options.base.max_weight = 3.75;
  options.base.seed = 20260417;
  options.num_snapshots = kWindows;
  options.jitter = 0.0;
  options.rewire_fraction = 0.004;
  options.anomaly_snapshot = 4;
  options.anomaly_fraction = 0.01;
  Result<TemporalGraphSequence> sequence = MakeRmatTemporalSequence(options);
  CAD_CHECK_OK(sequence.status());
  Rng rng(77);
  std::vector<TimestampedEvent> events;
  for (size_t t = 0; t < sequence->num_snapshots(); ++t) {
    std::vector<TimestampedEvent> window;
    for (const Edge& e : sequence->Snapshot(t).Edges()) {
      // The split is keyed by the edge, so an unchanged edge sums to the
      // same weight in every window and calm windows stay calm.
      Rng split(uint64_t{e.u} * 1000003 + e.v);
      const double part = e.weight * split.Uniform(0.1, 0.9);
      const double ts = static_cast<double>(t) + 0.5;
      window.push_back(TimestampedEvent{e.v, e.u, ts, part});
      window.push_back(TimestampedEvent{e.u, e.v, ts, e.weight - part});
    }
    rng.Shuffle(&window);
    events.insert(events.end(), window.begin(), window.end());
  }
  return events;
}

OnlineMonitorOptions MonitorOptions(Mode mode, size_t threads) {
  OnlineMonitorOptions options;
  const bool exact = mode == Mode::kExact || mode == Mode::kExactIncremental;
  options.detector.engine =
      exact ? CommuteEngine::kExact : CommuteEngine::kApprox;
  options.detector.approx.embedding_dim = 16;
  options.detector.approx.seed = 5;
  options.detector.analysis_threads = threads;
  options.detector.approx.cg.num_threads = threads;
  options.incremental =
      mode == Mode::kApproxIncremental || mode == Mode::kExactIncremental;
  options.warmup_transitions = 1;
  ApproxCommuteOptions& approx = options.detector.approx;
  switch (mode) {
    case Mode::kApproxRebuildK50:
      approx.embedding_dim = 50;
      break;
    case Mode::kApproxIc0WarmStart:
      approx.cg.preconditioner = CgPreconditioner::kIncompleteCholesky;
      approx.warm_start = true;
      break;
    case Mode::kApproxNoPreconditioner:
      approx.cg.preconditioner = CgPreconditioner::kNone;
      break;
    case Mode::kApproxWarmStartK25:
      approx.embedding_dim = 25;
      approx.warm_start = true;
      break;
    default:
      break;
  }
  return options;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

Digests RunDigests(Mode mode, size_t threads) {
  const OnlineMonitorOptions options = MonitorOptions(mode, threads);
  OnlineCadMonitor monitor(options);
  EventWindowOptions window_options;
  window_options.num_nodes = kNodes;
  Result<EventWindowAggregator> aggregator =
      EventWindowAggregator::Create(window_options);
  CAD_CHECK_OK(aggregator.status());
  const std::string checkpoint = ::testing::TempDir() + "golden_" +
                                 ModeName(mode) + "_" +
                                 std::to_string(threads) + ".ckpt";

  std::string report = "transition,u,v,score,weight_delta,commute_delta\n";
  Fnv1a oracles;
  Fnv1a laplacians;
  Fnv1a checkpoints;
  const auto observe = [&](const WeightedGraph& snapshot) {
    const double epsilon =
        options.detector.approx.commute.regularization_scale *
        std::max(snapshot.Volume(), 1.0);
    for (const double regularization : {0.0, epsilon}) {
      const CsrMatrix laplacian = snapshot.ToLaplacianCsr(regularization);
      laplacians.AddVector(laplacian.row_offsets());
      laplacians.AddVector(laplacian.col_indices());
      laplacians.AddVector(laplacian.values());
    }
    laplacians.AddDouble(snapshot.Volume());
    laplacians.AddVector(snapshot.WeightedDegrees());

    Result<std::optional<AnomalyReport>> observed = monitor.Observe(snapshot);
    CAD_CHECK_OK(observed.status());
    if (observed->has_value()) {
      for (const ScoredEdge& edge : (*observed)->edges) {
        report += std::to_string((*observed)->transition) + "," +
                  std::to_string(edge.pair.u) + "," +
                  std::to_string(edge.pair.v) + "," +
                  FormatDouble(edge.score, 9) + "," +
                  FormatDouble(edge.weight_delta, 9) + "," +
                  FormatDouble(edge.commute_delta, 9) + "\n";
      }
    }
    const CommuteTimeOracle* oracle = monitor.latest_oracle();
    CAD_CHECK(oracle != nullptr);
    if (const auto* approx =
            dynamic_cast<const ApproxCommuteEmbedding*>(oracle)) {
      oracles.AddVector(approx->embedding().data());
    } else {
      const auto* exact = dynamic_cast<const ExactCommuteTime*>(oracle);
      CAD_CHECK(exact != nullptr);
      oracles.AddVector(exact->laplacian_pseudoinverse().data());
    }
    CAD_CHECK_OK(monitor.SaveCheckpointFile(checkpoint));
    const std::string bytes = FileBytes(checkpoint);
    checkpoints.Add(bytes.data(), bytes.size());
  };

  const obs::ScopedMetricsEnable metrics;
  std::vector<WeightedGraph> completed;
  for (const TimestampedEvent& event : MakeFractionalEvents()) {
    completed.clear();
    CAD_CHECK_OK(aggregator->Add(event, &completed));
    for (const WeightedGraph& snapshot : completed) observe(snapshot);
  }
  observe(aggregator->Flush());
  EXPECT_EQ(monitor.num_snapshots(), kWindows);
  EXPECT_GT(report.size(), 100u) << "no window reported an anomaly";
  uint64_t pcg_iterations = 0;
#ifndef CAD_OBS_DISABLED
  uint64_t incremental = 0;
  for (const auto& [name, value] : obs::SnapshotMetrics().counters) {
    if (name == "commute.incremental_builds") incremental = value;
    if (name == "pcg.iterations") pcg_iterations = value;
  }
  if (options.incremental) {
    // Calm windows must take the incremental path, or the digests would not
    // cover it.
    EXPECT_GE(incremental, 2u);
  }
#endif
  std::remove(checkpoint.c_str());

  Fnv1a report_hash;
  report_hash.Add(report.data(), report.size());
  return Digests{report_hash.value(), oracles.value(), laplacians.value(),
                 checkpoints.value(), pcg_iterations};
}

/// Committed digests. A change to any of these is a change of output bytes:
/// it needs a reason, not a re-run.
Digests Expected(Mode mode) {
  switch (mode) {
    case Mode::kApproxIncremental:
      return Digests{0xf83f858eb0992515ULL,
                     0x424c9829cfb577e3ULL,
                     0xa1bc64db28669bd1ULL,
                     0x40c27e273ab06cd7ULL,
                     696};
    case Mode::kApproxRebuild:
      return Digests{0x4393d326cba6333bULL,
                     0x972cbb64e847c690ULL,
                     0xa1bc64db28669bd1ULL,
                     0xd26bc74ea97bae3bULL,
                     2180};
    case Mode::kExact:
      return Digests{0x8fd4a3f66760f593ULL,
                     0x0b7222f5fd435663ULL,
                     0xa1bc64db28669bd1ULL,
                     0x7186faf27a242c5bULL,
                     0};
    case Mode::kExactIncremental:
      return Digests{0x8fd4a3f66760f593ULL,
                     0x52d6cf6a2d4bd31fULL,
                     0xa1bc64db28669bd1ULL,
                     0x1f0a20c1c8565562ULL,
                     0};
    case Mode::kApproxRebuildK50:
      return Digests{0x07784b2d4de852ffULL,
                     0xa3c95ae0461538e6ULL,
                     0xa1bc64db28669bd1ULL,
                     0x9ab6dc6bac397d26ULL,
                     6838};
    case Mode::kApproxIc0WarmStart:
      return Digests{0x9d570d626e859008ULL,
                     0xa608c66b91751afeULL,
                     0xa1bc64db28669bd1ULL,
                     0x9c0f416786b48bacULL,
                     3830};
    case Mode::kApproxNoPreconditioner:
      return Digests{0xaa7ad7c514573c31ULL,
                     0x36824506de90eb14ULL,
                     0xa1bc64db28669bd1ULL,
                     0xc9f19394823e5c29ULL,
                     21003};
    case Mode::kApproxWarmStartK25:
      return Digests{0xbf4ec5b87a182637ULL,
                     0x26866fcf5ff00a1bULL,
                     0xa1bc64db28669bd1ULL,
                     0xa5611bde1e87cbd2ULL,
                     3225};
  }
  return Digests{};
}

std::string Hex(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

class GoldenDigestTest
    : public ::testing::TestWithParam<std::tuple<Mode, size_t>> {};

TEST_P(GoldenDigestTest, StreamOutputsMatchCommittedDigests) {
  const auto [mode, threads] = GetParam();
  const Digests actual = RunDigests(mode, threads);
  const Digests expected = Expected(mode);
  EXPECT_EQ(Hex(actual.report), Hex(expected.report))
      << "report CSV bytes changed";
  EXPECT_EQ(Hex(actual.oracles), Hex(expected.oracles))
      << "embedding / pseudoinverse bytes changed";
  EXPECT_EQ(Hex(actual.laplacians), Hex(expected.laplacians))
      << "Laplacian CSR arrays, volume or weighted degrees changed";
  EXPECT_EQ(Hex(actual.checkpoints), Hex(expected.checkpoints))
      << "checkpoint file bytes changed";
#ifndef CAD_OBS_DISABLED
  EXPECT_EQ(actual.pcg_iterations, expected.pcg_iterations)
      << "PCG iteration count changed";
#endif
}

INSTANTIATE_TEST_SUITE_P(
    Modes, GoldenDigestTest,
    ::testing::Combine(::testing::Values(Mode::kApproxIncremental,
                                         Mode::kApproxRebuild, Mode::kExact,
                                         Mode::kExactIncremental,
                                         Mode::kApproxRebuildK50,
                                         Mode::kApproxIc0WarmStart,
                                         Mode::kApproxNoPreconditioner,
                                         Mode::kApproxWarmStartK25),
                       ::testing::Values(size_t{1}, size_t{2})),
    [](const ::testing::TestParamInfo<std::tuple<Mode, size_t>>& info) {
      return std::string(ModeName(std::get<0>(info.param))) + "_threads" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace cad
