// Quickstart: build a small temporal graph by hand, run CAD, and print the
// localized anomalous edges and nodes.
//
//   build/examples/quickstart
//
// The scenario: two tight-knit teams with benign internal churn, plus one
// anomalous new link that bridges the teams in the second snapshot. CAD
// should rank the bridge far above the churn.

#include <iostream>

#include "common/check.h"
#include "core/cad_detector.h"
#include "core/threshold.h"
#include "graph/temporal_graph.h"
#include "obs/obs.h"

int main() {
  using namespace cad;

  // Opt-in observability: set CAD_METRICS_CSV and/or CAD_TRACE_JSON to a
  // path and the run's metrics / Chrome trace are written on exit.
  obs::InitObservabilityFromEnv();

  // 1. Build the "before" snapshot: teams {0,1,2,3} and {4,5,6,7}.
  constexpr size_t kNumNodes = 8;
  WeightedGraph before(kNumNodes);
  for (NodeId team_base : {NodeId{0}, NodeId{4}}) {
    for (NodeId a = 0; a < 4; ++a) {
      for (NodeId b = a + 1; b < 4; ++b) {
        CAD_CHECK_OK(before.SetEdge(team_base + a, team_base + b, 3.0));
      }
    }
  }
  // A single weak pre-existing link keeps the graph connected.
  CAD_CHECK_OK(before.SetEdge(3, 4, 0.3));

  // 2. Build the "after" snapshot: benign churn inside the teams, plus the
  //    anomalous new bridge 0-7.
  WeightedGraph after = before;
  CAD_CHECK_OK(after.SetEdge(1, 2, 3.4));   // benign: tightly-coupled pair
  CAD_CHECK_OK(after.SetEdge(5, 6, 2.7));   // benign
  CAD_CHECK_OK(after.SetEdge(0, 7, 2.0));   // anomalous: bridges the teams

  TemporalGraphSequence sequence(kNumNodes);
  CAD_CHECK_OK(sequence.Append(std::move(before)));
  CAD_CHECK_OK(sequence.Append(std::move(after)));

  // 3. Run CAD. For 8 nodes the exact commute-time engine is automatic.
  CadDetector detector;
  auto analyses = detector.Analyze(sequence);
  CAD_CHECK(analyses.ok()) << analyses.status().ToString();

  // 4. Inspect raw edge scores.
  std::cout << "Edge anomaly scores (dE = |dA| * |d commute|):\n";
  for (const ScoredEdge& edge : (*analyses)[0].edges) {
    if (edge.score <= 0.0) continue;
    std::cout << "  " << edge.pair.u << "-" << edge.pair.v
              << "  score=" << edge.score << "  dA=" << edge.weight_delta
              << "  dc=" << edge.commute_delta << "\n";
  }

  // 5. Threshold into anomaly sets, calibrated for ~2 anomalous nodes per
  //    transition (the paper's automated delta selection).
  const double delta = CalibrateDelta(*analyses, /*nodes_per_transition=*/2.0);
  const std::vector<AnomalyReport> reports = ApplyThreshold(*analyses, delta);
  std::cout << "\nWith delta=" << delta << ":\n  anomalous edges:";
  for (const ScoredEdge& edge : reports[0].edges) {
    std::cout << " " << edge.pair.u << "-" << edge.pair.v;
  }
  std::cout << "\n  anomalous nodes:";
  for (NodeId node : reports[0].nodes) std::cout << " " << node;
  std::cout << "\n\nExpected: the bridge 0-7 (and only it) is flagged.\n";

  // 6. The same analysis with the scalable solver stack: the approximate
  //    commute engine (its k systems run through the block-PCG solver),
  //    temporal warm-starting (snapshot t seeds snapshot t+1's solves), and an IC(0)
  //    factorization reused across snapshots. Overkill for 8 nodes, but
  //    this is the configuration to reach for on long timelines.
  CadOptions fast_options;
  fast_options.engine = CommuteEngine::kApprox;
  fast_options.approx.embedding_dim = 16;
  fast_options.approx.warm_start = true;
  fast_options.approx.cg.preconditioner =
      CgPreconditioner::kIncompleteCholesky;
  CadDetector fast_detector(fast_options);
  auto fast_analyses = fast_detector.Analyze(sequence);
  CAD_CHECK(fast_analyses.ok()) << fast_analyses.status().ToString();
  const ScoredEdge* top = nullptr;
  for (const ScoredEdge& edge : (*fast_analyses)[0].edges) {
    if (top == nullptr || edge.score > top->score) top = &edge;
  }
  std::cout << "\nApprox engine (warm start + IC(0)) agrees: top edge "
            << top->pair.u << "-" << top->pair.v << "\n";
  CAD_CHECK_OK(obs::FlushObservability());
  return 0;
}
