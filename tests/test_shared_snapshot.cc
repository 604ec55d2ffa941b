// Frozen snapshots shared across threads, aimed at the ThreadSanitizer build
// (-DCAD_SANITIZE=thread). A frozen WeightedGraph is read-only: every
// per-window consumer reads its sorted edge list, and nothing is built
// lazily inside a const method. Batch CadDetector::Analyze with
// analysis_threads > 1 scores transitions t-1 and t concurrently, so
// snapshot t is read by two threads at once; these tests make that happen
// and check the results against the serial pass bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "core/cad_detector.h"
#include "datagen/rmat.h"
#include "graph/components.h"
#include "graph/edge_delta.h"

namespace cad {
namespace {

TemporalGraphSequence SharedSequence() {
  RmatTemporalOptions options;
  options.base.num_nodes = 400;
  options.base.num_edges = 2400;
  options.base.min_weight = 0.5;
  options.base.max_weight = 2.5;
  options.base.seed = 31;
  options.num_snapshots = 8;
  options.anomaly_snapshot = 5;
  Result<TemporalGraphSequence> sequence = MakeRmatTemporalSequence(options);
  CAD_CHECK_OK(sequence.status());
  return std::move(sequence).ValueOrDie();
}

void ExpectSameScores(const std::vector<TransitionScores>& a,
                      const std::vector<TransitionScores>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].edges.size(), b[t].edges.size()) << "transition " << t;
    for (size_t i = 0; i < a[t].edges.size(); ++i) {
      ASSERT_EQ(a[t].edges[i].pair, b[t].edges[i].pair);
      ASSERT_EQ(a[t].edges[i].score, b[t].edges[i].score);
      ASSERT_EQ(a[t].edges[i].weight_delta, b[t].edges[i].weight_delta);
      ASSERT_EQ(a[t].edges[i].commute_delta, b[t].edges[i].commute_delta);
    }
    ASSERT_EQ(a[t].node_scores, b[t].node_scores);
    ASSERT_EQ(a[t].total_score, b[t].total_score);
  }
}

TEST(SharedSnapshotConcurrencyTest, ParallelAnalyzeMatchesSerial) {
  const TemporalGraphSequence sequence = SharedSequence();
  for (size_t t = 0; t < sequence.num_snapshots(); ++t) {
    ASSERT_TRUE(sequence.Snapshot(t).frozen()) << "Append freezes";
  }
  for (const CommuteEngine engine :
       {CommuteEngine::kApprox, CommuteEngine::kExact}) {
    CadOptions options;
    options.engine = engine;
    options.approx.embedding_dim = 12;
    const Result<std::vector<TransitionScores>> serial =
        CadDetector(options).Analyze(sequence);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    options.analysis_threads = 4;
    const Result<std::vector<TransitionScores>> parallel =
        CadDetector(options).Analyze(sequence);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectSameScores(*serial, *parallel);
  }
}

TEST(SharedSnapshotConcurrencyTest, ConsumersReadOneSnapshotFromManyThreads) {
  // Snapshot 3 is diffed against both neighbors and assembled into its
  // Laplacian and components by many threads at once, as a parallel batch
  // pass and a checkpoint writer would.
  const TemporalGraphSequence sequence = SharedSequence();
  const WeightedGraph& shared = sequence.Snapshot(3);
  const WeightedGraph* neighbors[] = {&sequence.Snapshot(2),
                                      &sequence.Snapshot(4)};
  const CsrMatrix laplacian = shared.ToLaplacianCsr(0.5);
  const ComponentLabeling components = ConnectedComponents(shared);
  const size_t changes[] = {DiffSnapshots(*neighbors[0], shared).rank(),
                            DiffSnapshots(shared, *neighbors[1]).rank()};
  constexpr size_t kTasks = 32;
  std::vector<uint8_t> same(kTasks, 0);
  ParallelFor(kTasks, 8, [&](size_t i) {
    const CsrMatrix l = shared.ToLaplacianCsr(0.5);
    const ComponentLabeling c = ConnectedComponents(shared);
    const size_t rank = i % 2 == 0
                            ? DiffSnapshots(*neighbors[0], shared).rank()
                            : DiffSnapshots(shared, *neighbors[1]).rank();
    bool weights_found = true;
    for (const Edge& e : SortedEdges(shared)) {
      weights_found = weights_found && shared.EdgeWeight(e.v, e.u) == e.weight;
    }
    same[i] = l.values() == laplacian.values() &&
              l.col_indices() == laplacian.col_indices() &&
              c.component == components.component && rank == changes[i % 2] &&
              weights_found;
  });
  for (size_t i = 0; i < kTasks; ++i) EXPECT_EQ(same[i], 1) << "task " << i;
}

}  // namespace
}  // namespace cad
