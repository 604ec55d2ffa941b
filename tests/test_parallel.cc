#include "common/parallel.h"

#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "commute/approx_commute.h"
#include "core/cad_detector.h"
#include "datagen/random_graphs.h"
#include "linalg/conjugate_gradient.h"

namespace cad {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (size_t num_threads : {1u, 2u, 4u, 7u}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    ParallelFor(hits.size(), num_threads,
                [&hits](size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, ZeroAndOneCount) {
  int calls = 0;
  ParallelFor(0, 4, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(1, 4, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, InlineWhenSingleThreaded) {
  // With num_threads = 1 the function runs on the calling thread in order.
  std::vector<size_t> order;
  ParallelFor(5, 1, [&order](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::atomic<int> sum{0};
  ParallelFor(3, 16, [&sum](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 3);
}

TEST(HardwareThreadsTest, AtLeastOne) { EXPECT_GE(HardwareThreads(), 1u); }

TEST(ParallelSolveTest, ParallelSolveBlockMatchesSerial) {
  RandomGraphOptions opts;
  opts.num_nodes = 300;
  opts.average_degree = 6.0;
  opts.seed = 8;
  const WeightedGraph g = MakeRandomSparseGraph(opts);
  const CsrMatrix l = g.ToLaplacianCsr(1e-8 * g.Volume());

  // 40 systems: three column chunks for the four threads to share.
  constexpr size_t kSystems = 40;
  DenseMatrix rhs(300, kSystems);
  for (size_t c = 0; c < kSystems; ++c) {
    rhs(c, c) = 1.0;
    rhs(299 - c, c) = -1.0;
  }

  CgOptions parallel;
  parallel.num_threads = 4;
  const ConjugateGradientSolver solver(parallel);
  DenseMatrix block;
  auto summaries = solver.SolveBlock(l, rhs, &block);
  ASSERT_TRUE(summaries.ok());
  // CG is deterministic per system; neither the lockstep chunks nor the
  // parallel schedule may change any solution bit relative to one serial
  // Solve per system.
  for (size_t c = 0; c < kSystems; ++c) {
    std::vector<double> b(300, 0.0);
    b[c] = 1.0;
    b[299 - c] = -1.0;
    std::vector<double> serial;
    auto summary = solver.Solve(l, b, &serial);
    ASSERT_TRUE(summary.ok());
    for (size_t i = 0; i < 300; ++i) {
      EXPECT_EQ(serial[i], block(i, c)) << "system " << c << ", row " << i;
    }
    EXPECT_EQ(summary->iterations, (*summaries)[c].iterations);
  }
}

TEST(ParallelSolveTest, ParallelAnalyzeMatchesSerial) {
  // A 6-snapshot sequence with churn; parallel snapshot analysis must be
  // bit-identical to the serial pass.
  RandomGraphOptions opts;
  opts.num_nodes = 60;
  opts.average_degree = 5.0;
  opts.seed = 21;
  TemporalGraphSequence seq(60);
  WeightedGraph current = MakeRandomSparseGraph(opts);
  Rng rng(31);
  for (int t = 0; t < 6; ++t) {
    CAD_CHECK_OK(seq.Append(current));
    current = PerturbGraph(current, 0.2, 0.05, &rng);
  }

  CadOptions serial;
  serial.engine = CommuteEngine::kExact;
  CadOptions parallel = serial;
  parallel.analysis_threads = 4;
  auto a = CadDetector(serial).Analyze(seq);
  auto b = CadDetector(parallel).Analyze(seq);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t t = 0; t < a->size(); ++t) {
    EXPECT_EQ((*a)[t].total_score, (*b)[t].total_score) << "transition " << t;
    ASSERT_EQ((*a)[t].edges.size(), (*b)[t].edges.size());
    for (size_t e = 0; e < (*a)[t].edges.size(); ++e) {
      EXPECT_EQ((*a)[t].edges[e].pair, (*b)[t].edges[e].pair);
      EXPECT_EQ((*a)[t].edges[e].score, (*b)[t].edges[e].score);
    }
    EXPECT_EQ((*a)[t].node_scores, (*b)[t].node_scores);
  }
}

TEST(ParallelSolveTest, ParallelEmbeddingMatchesSerial) {
  RandomGraphOptions opts;
  opts.num_nodes = 200;
  opts.average_degree = 6.0;
  opts.seed = 9;
  const WeightedGraph g = MakeRandomSparseGraph(opts);

  ApproxCommuteOptions serial;
  serial.embedding_dim = 16;
  serial.seed = 11;
  ApproxCommuteOptions parallel = serial;
  parallel.cg.num_threads = 4;

  auto a = ApproxCommuteEmbedding::Build(g, serial);
  auto b = ApproxCommuteEmbedding::Build(g, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->embedding().MaxAbsDifference(b->embedding()), 0.0);
}

}  // namespace
}  // namespace cad
