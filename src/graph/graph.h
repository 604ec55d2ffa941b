#ifndef CAD_GRAPH_GRAPH_H_
#define CAD_GRAPH_GRAPH_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "linalg/sparse_matrix.h"

namespace cad {

/// \brief Node identifier. Nodes are dense integers [0, num_nodes).
using NodeId = uint32_t;

/// \brief An undirected weighted edge in canonical orientation (u < v).
struct Edge {
  NodeId u;
  NodeId v;
  double weight;

  bool operator==(const Edge& other) const {
    return u == other.u && v == other.v && weight == other.weight;
  }
};

/// \brief Canonical (u < v) pair identifying an undirected edge slot,
/// independent of weight. Used as a key into score maps.
struct NodePair {
  NodeId u;
  NodeId v;

  /// Normalizes the orientation so that u <= v.
  static NodePair Make(NodeId a, NodeId b) {
    return a <= b ? NodePair{a, b} : NodePair{b, a};
  }

  uint64_t Key() const { return (static_cast<uint64_t>(u) << 32) | v; }

  bool operator==(const NodePair& other) const {
    return u == other.u && v == other.v;
  }
  bool operator<(const NodePair& other) const { return Key() < other.Key(); }
};

/// \brief Undirected weighted graph on a fixed node set.
///
/// Matches the paper's framework (§2): the vertex set is fixed, edge weights
/// are non-negative, and "no edge" is represented by weight zero. Self-loops
/// are disallowed.
///
/// A graph has two states (DESIGN.md §14). While it is being built it keeps
/// its edges in a hash map. Freeze() turns it into a *frozen snapshot*: one
/// edge list sorted by (u, v), with the volume and weighted degrees summed
/// once in the map's iteration order, after which the map is released. The
/// pipeline freezes every window when it stops changing (aggregator close,
/// TemporalGraphSequence::Append, monitor ingest), and every per-window
/// consumer — snapshot diff, transition scoring, components, Laplacian
/// assembly, the JL right-hand sides, the checkpoint writer — reads that one
/// list. Freezing never changes a value: the cached sums are the very ones
/// the map would have produced. Mutating a frozen graph thaws it back into a
/// map built in sorted order.
class WeightedGraph {
 public:
  /// Creates an edgeless graph on `num_nodes` nodes.
  explicit WeightedGraph(size_t num_nodes = 0) : num_nodes_(num_nodes) {}

  size_t num_nodes() const { return num_nodes_; }

  /// Grows the node set to `num_nodes`; new nodes are isolated. Shrinking is
  /// rejected (edges could dangle). Growing never touches existing edges, so
  /// volume and degrees of existing nodes are unchanged.
  [[nodiscard]] Status GrowTo(size_t num_nodes);

  /// Number of edges with nonzero weight.
  size_t num_edges() const {
    return frozen_ ? edges_.size() : weights_.size();
  }

  /// Freezes the graph into its sorted edge list (see the class comment).
  /// Idempotent. Not thread-safe: call it before the graph is shared.
  void Freeze();

  /// True once Freeze() has run and no mutation has thawed the graph since.
  bool frozen() const { return frozen_; }

  /// Sets the weight of edge {u, v}. Weight 0 deletes the edge. Returns
  /// InvalidArgument for self-loops, negative weights, or out-of-range ids.
  [[nodiscard]] Status SetEdge(NodeId u, NodeId v, double weight);

  /// Adds `delta` to the weight of edge {u, v}; the result must stay >= 0.
  [[nodiscard]] Status AddEdgeWeight(NodeId u, NodeId v, double delta);

  /// Weight of edge {u, v}; 0 if absent. Self-queries return 0.
  double EdgeWeight(NodeId u, NodeId v) const;

  /// True if {u, v} has nonzero weight.
  bool HasEdge(NodeId u, NodeId v) const { return EdgeWeight(u, v) != 0.0; }

  /// All edges in canonical orientation, sorted by (u, v). A copy; per-window
  /// code reads SortedEdges instead.
  std::vector<Edge> Edges() const;

  /// Weighted degree (sum of incident edge weights) of every node. A frozen
  /// graph returns the sums it cached at Freeze().
  std::vector<double> WeightedDegrees() const;

  /// Unweighted degree (neighbor count) of every node.
  std::vector<size_t> Degrees() const;

  /// Graph volume V_G = sum of weighted degrees = 2 * total edge weight.
  double Volume() const;

  /// Symmetric adjacency matrix in CSR form.
  CsrMatrix ToAdjacencyCsr() const;

  /// Combinatorial Laplacian L = D - A in CSR form, with `regularization`
  /// added to every diagonal entry. A small positive regularization makes L
  /// strictly positive definite, which the commute-time engines use to handle
  /// disconnected snapshots (see DESIGN.md).
  CsrMatrix ToLaplacianCsr(double regularization = 0.0) const;

  /// Dense adjacency matrix; small graphs only.
  DenseMatrix ToAdjacencyDense() const;

  /// Dense Laplacian; small graphs only.
  DenseMatrix ToLaplacianDense(double regularization = 0.0) const;

  /// Neighbor lists, each sorted by node (adjacency view shared by
  /// BFS/Dijkstra).
  struct Neighbor {
    NodeId node;
    double weight;
  };
  std::vector<std::vector<Neighbor>> AdjacencyLists() const;

  /// Summary string: "WeightedGraph(n=…, m=…, volume=…)".
  std::string ToString() const;

  /// Same node count and the same weighted edge set, frozen or not.
  bool operator==(const WeightedGraph& other) const;

 private:
  friend class SortedEdges;

  /// Turns a frozen graph back into a map (sorted insertion order).
  void Thaw();

  /// The map's edges, canonical, in its iteration order.
  std::vector<Edge> EdgesInMapOrder() const;

  size_t num_nodes_;
  bool frozen_ = false;
  // While building: keyed by NodePair::Key() with u < v; values strictly
  // positive. Empty once frozen.
  std::unordered_map<uint64_t, double> weights_;
  // Once frozen: the edges sorted by (u, v), and the volume and weighted
  // degrees summed in the released map's iteration order.
  std::vector<Edge> edges_;
  double volume_ = 0.0;
  std::vector<double> weighted_degrees_;
};

/// \brief A graph's edges sorted by (u, v), the input of every per-window
/// consumer. Borrows a frozen graph's list; for a graph still being built it
/// holds a sorted copy. Keep it no longer than the graph.
class SortedEdges {
 public:
  explicit SortedEdges(const WeightedGraph& graph);
  SortedEdges(const SortedEdges&) = delete;
  SortedEdges& operator=(const SortedEdges&) = delete;

  const Edge* begin() const { return edges_->data(); }
  const Edge* end() const { return edges_->data() + edges_->size(); }
  size_t size() const { return edges_->size(); }

 private:
  std::vector<Edge> copy_;
  const std::vector<Edge>* edges_ = nullptr;
};

/// \brief One merge pass over two sorted edge lists: calls
/// `visit(before_edge, after_edge)` once per pair in the union of the two
/// supports, in (u, v) order, with nullptr on the side that lacks the pair.
template <typename Visit>
void MergeSortedEdges(const SortedEdges& before, const SortedEdges& after,
                      Visit&& visit) {
  const Edge* a = before.begin();
  const Edge* b = after.begin();
  while (a != before.end() || b != after.end()) {
    if (b == after.end() ||
        (a != before.end() && NodePair{a->u, a->v} < NodePair{b->u, b->v})) {
      visit(a++, nullptr);
    } else if (a == before.end() ||
               NodePair{b->u, b->v} < NodePair{a->u, a->v}) {
      visit(nullptr, b++);
    } else {
      visit(a++, b++);
    }
  }
}

}  // namespace cad

#endif  // CAD_GRAPH_GRAPH_H_
