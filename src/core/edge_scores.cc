#include "core/edge_scores.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.h"

namespace cad {

const char* EdgeScoreKindToString(EdgeScoreKind kind) {
  switch (kind) {
    case EdgeScoreKind::kCad:
      return "CAD";
    case EdgeScoreKind::kAdj:
      return "ADJ";
    case EdgeScoreKind::kCom:
      return "COM";
    case EdgeScoreKind::kSum:
      return "SUM";
  }
  return "Unknown";
}

TransitionScores ComputeTransitionScores(const WeightedGraph& before,
                                         const WeightedGraph& after,
                                         const CommuteTimeOracle& oracle_before,
                                         const CommuteTimeOracle& oracle_after,
                                         EdgeScoreKind kind) {
  CAD_CHECK_EQ(before.num_nodes(), after.num_nodes());
  CAD_CHECK_EQ(oracle_before.num_nodes(), before.num_nodes());
  CAD_CHECK_EQ(oracle_after.num_nodes(), after.num_nodes());
  const size_t n = before.num_nodes();

  const SortedEdges before_edges(before);
  const SortedEdges after_edges(after);
  size_t union_size = 0;
  MergeSortedEdges(before_edges, after_edges,
                   [&](const Edge*, const Edge*) { ++union_size; });
  TransitionScores result;
  result.edges.reserve(union_size);
  result.node_scores.assign(n, 0.0);

  // First pass: raw deltas over the union of the two edge supports, one
  // merge of the sorted lists (a missing edge has weight 0).
  double max_abs_weight_delta = 0.0;
  double max_abs_commute_delta = 0.0;
  const auto score = [&](const Edge* old_edge, const Edge* new_edge) {
    const Edge& e = old_edge != nullptr ? *old_edge : *new_edge;
    ScoredEdge scored;
    scored.pair = NodePair{e.u, e.v};
    scored.weight_delta = (new_edge != nullptr ? new_edge->weight : 0.0) -
                          (old_edge != nullptr ? old_edge->weight : 0.0);
    scored.commute_delta = oracle_after.CommuteTime(e.u, e.v) -
                           oracle_before.CommuteTime(e.u, e.v);
    max_abs_weight_delta =
        std::max(max_abs_weight_delta, std::fabs(scored.weight_delta));
    max_abs_commute_delta =
        std::max(max_abs_commute_delta, std::fabs(scored.commute_delta));
    result.edges.push_back(scored);
  };
  MergeSortedEdges(before_edges, after_edges, score);

  // Second pass: fuse deltas into the selected score.
  for (ScoredEdge& scored : result.edges) {
    const double abs_dw = std::fabs(scored.weight_delta);
    const double abs_dc = std::fabs(scored.commute_delta);
    switch (kind) {
      case EdgeScoreKind::kCad:
        scored.score = abs_dw * abs_dc;
        break;
      case EdgeScoreKind::kAdj:
        scored.score = abs_dw;
        break;
      case EdgeScoreKind::kCom:
        scored.score = abs_dc;
        break;
      case EdgeScoreKind::kSum:
        scored.score =
            (max_abs_weight_delta > 0.0 ? abs_dw / max_abs_weight_delta : 0.0) +
            (max_abs_commute_delta > 0.0 ? abs_dc / max_abs_commute_delta
                                         : 0.0);
        break;
    }
    // Every fused score is a product/sum of absolute deltas: dE >= 0 and
    // finite, or an oracle/graph invariant upstream has been corrupted.
    CAD_DCHECK(scored.score >= 0.0 && std::isfinite(scored.score))
        << "edge (" << scored.pair.u << ", " << scored.pair.v
        << ") score=" << scored.score;
    result.total_score += scored.score;
    result.node_scores[scored.pair.u] += scored.score;
    result.node_scores[scored.pair.v] += scored.score;
  }

  // Order by score descending, ties by pair. The merge left the edges in
  // pair order, so the zero scores (every unchanged edge under kCad/kAdj)
  // are already in their final order: only the positive scores need a
  // sort, and they go in front of the zeros.
  std::vector<ScoredEdge> positive;
  size_t zeros = 0;
  for (const ScoredEdge& scored : result.edges) {
    if (scored.score > 0.0) {
      positive.push_back(scored);
    } else {
      result.edges[zeros++] = scored;
    }
  }
  std::sort(positive.begin(), positive.end(),
            [](const ScoredEdge& a, const ScoredEdge& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.pair < b.pair;
            });
  std::move_backward(result.edges.begin(), result.edges.begin() + zeros,
                     result.edges.end());
  std::copy(positive.begin(), positive.end(), result.edges.begin());
  result.BuildSelectionIndex();
  return result;
}

void TransitionScores::BuildSelectionIndex() {
  num_positive = 0;
  while (num_positive < edges.size() && edges[num_positive].score > 0.0) {
    ++num_positive;
  }
  // Replay the peeling loop's successive subtraction once. Computing this as
  // total - prefix_sum would round differently and break bit-identity with
  // the legacy loop.
  remaining_mass.resize(num_positive);
  double remaining = total_score;
  for (size_t i = 0; i < num_positive; ++i) {
    remaining_mass[i] = remaining;
    remaining -= edges[i].score;
  }
  prefix_nodes.assign(num_positive + 1, 0);
  NodeId max_node = 0;
  for (size_t i = 0; i < num_positive; ++i) {
    max_node = std::max({max_node, edges[i].pair.u, edges[i].pair.v});
  }
  std::vector<uint8_t> seen(num_positive > 0 ? size_t{max_node} + 1 : 0, 0);
  size_t distinct = 0;
  for (size_t i = 0; i < num_positive; ++i) {
    for (const NodeId node : {edges[i].pair.u, edges[i].pair.v}) {
      if (seen[node] == 0) {
        seen[node] = 1;
        ++distinct;
      }
    }
    prefix_nodes[i + 1] = distinct;
  }
}

void TransitionScores::ClearSelectionIndex() {
  remaining_mass.clear();
  prefix_nodes.clear();
  num_positive = 0;
}

size_t CountSelectedEdges(const TransitionScores& scores, double delta) {
  if (scores.has_selection_index()) {
    // remaining_mass is strictly decreasing over [0, num_positive) (every
    // score there is positive), so the first index whose remaining mass
    // drops below delta is found by binary search; the selection is the
    // prefix before it. Comparisons are against the same successively
    // subtracted values the legacy loop sees, so the count is bit-identical.
    size_t lo = 0;
    size_t hi = scores.num_positive;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (scores.remaining_mass[mid] < delta) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }
  // Legacy peeling loop (kept verbatim as the unindexed fallback and the
  // reference implementation for the bit-identity tests).
  size_t selected = 0;
  double remaining = scores.total_score;
  for (size_t i = 0; i < scores.edges.size(); ++i) {
    if (remaining < delta) break;
    if (scores.edges[i].score <= 0.0) break;
    ++selected;
    remaining -= scores.edges[i].score;
  }
  return selected;
}

std::vector<size_t> SelectAnomalousEdges(const TransitionScores& scores,
                                         double delta) {
  // Remaining mass starts at the full total; peel off top-scored edges until
  // what is left is below delta. If the total is already below delta, no
  // edge is anomalous. The selection is always a prefix of the descending
  // order, so its length fully determines it.
  const size_t count = CountSelectedEdges(scores, delta);
  std::vector<size_t> selected(count);
  for (size_t i = 0; i < count; ++i) selected[i] = i;
  return selected;
}

std::vector<NodeId> EndpointUnion(const TransitionScores& scores,
                                  const std::vector<size_t>& edge_indices) {
  std::vector<NodeId> nodes;
  nodes.reserve(edge_indices.size() * 2);
  for (size_t index : edge_indices) {
    nodes.push_back(scores.edges[index].pair.u);
    nodes.push_back(scores.edges[index].pair.v);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

}  // namespace cad
