#ifndef CAD_GRAPH_EDGE_DELTA_H_
#define CAD_GRAPH_EDGE_DELTA_H_

#include <cstddef>
#include <vector>

#include "graph/graph.h"

namespace cad {

/// \brief One edge whose weight differs between two snapshots. Endpoints are
/// canonical (u < v); a weight of zero on either side encodes insertion
/// (weight_before == 0) or deletion (weight_after == 0).
struct ChangedEdge {
  NodeId u = 0;
  NodeId v = 0;
  double weight_before = 0.0;
  double weight_after = 0.0;

  /// Signed weight delta w' - w; never zero for a ChangedEdge produced by
  /// DiffSnapshots.
  double delta() const { return weight_after - weight_before; }
};

/// \brief The rank-k difference between two consecutive snapshots, viewed as
/// a Laplacian update
///
///   L_after = L_before + B W B^T,
///
/// where column j of B is the signed incidence vector e_{u_j} - e_{v_j} of
/// changed edge j and W = diag(delta_j) holds the signed weight deltas. This
/// is the input to the incremental maintenance paths (exact Woodbury update
/// and churn-scoped approximate re-solves; DESIGN.md §12).
struct EdgeDelta {
  /// Changed edges in canonical (u, v) order — the order of the sorted
  /// edge lists, which keeps downstream updates deterministic.
  std::vector<ChangedEdge> changes;
  /// Edge counts of the two snapshots, for churn accounting.
  size_t edges_before = 0;
  size_t edges_after = 0;

  /// The rank of the Laplacian update.
  size_t rank() const { return changes.size(); }

  /// Fraction of the (larger) edge set touched by this delta, the quantity
  /// compared against the incremental churn threshold. 0 for two empty
  /// snapshots.
  double ChurnRatio() const;
};

/// \brief Diffs two snapshots into the rank-k Laplacian update that maps
/// `before` to `after`.
///
/// Runs one merge pass over the two sorted edge lists: O(m) for frozen
/// snapshots, plus the sorts for graphs still being built. The snapshots
/// may have different node counts (edges incident to nodes beyond the
/// smaller snapshot simply appear as insertions/deletions); callers that
/// need matching dimensions — the Woodbury path does — must check
/// num_nodes themselves.
EdgeDelta DiffSnapshots(const WeightedGraph& before,
                        const WeightedGraph& after);

}  // namespace cad

#endif  // CAD_GRAPH_EDGE_DELTA_H_
