#include "graph/edge_delta.h"

#include <algorithm>

namespace cad {

double EdgeDelta::ChurnRatio() const {
  const size_t denom = std::max(edges_before, edges_after);
  if (denom == 0) return changes.empty() ? 0.0 : 1.0;
  return static_cast<double>(changes.size()) / static_cast<double>(denom);
}

EdgeDelta DiffSnapshots(const WeightedGraph& before,
                        const WeightedGraph& after) {
  const SortedEdges old_edges(before);
  const SortedEdges new_edges(after);
  EdgeDelta delta;
  delta.edges_before = old_edges.size();
  delta.edges_after = new_edges.size();

  // A missing edge has weight 0, so insertions, deletions and reweights are
  // all the pairs whose two weights differ.
  const auto record = [&](const Edge* old_edge, const Edge* new_edge) {
    const double before_weight = old_edge != nullptr ? old_edge->weight : 0.0;
    const double after_weight = new_edge != nullptr ? new_edge->weight : 0.0;
    if (before_weight == after_weight) return;
    const Edge& e = old_edge != nullptr ? *old_edge : *new_edge;
    delta.changes.push_back(ChangedEdge{e.u, e.v, before_weight, after_weight});
  };
  MergeSortedEdges(old_edges, new_edges, record);
  return delta;
}

}  // namespace cad
