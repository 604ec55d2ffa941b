#include "graph/graph.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace cad {

namespace {

Status ValidateEndpoints(NodeId u, NodeId v, size_t num_nodes) {
  if (u == v) {
    return Status::InvalidArgument("self-loops are not allowed (node " +
                                   std::to_string(u) + ")");
  }
  if (u >= num_nodes || v >= num_nodes) {
    return Status::OutOfRange("edge endpoint out of range: {" +
                              std::to_string(u) + ", " + std::to_string(v) +
                              "} with n=" + std::to_string(num_nodes));
  }
  return Status::OK();
}

void SortByPair(std::vector<Edge>* edges) {
  std::sort(edges->begin(), edges->end(), [](const Edge& a, const Edge& b) {
    return NodePair{a.u, a.v} < NodePair{b.u, b.v};
  });
}

}  // namespace

Status WeightedGraph::GrowTo(size_t num_nodes) {
  if (num_nodes < num_nodes_) {
    return Status::InvalidArgument(
        "GrowTo cannot shrink the node set: " + std::to_string(num_nodes) +
        " < " + std::to_string(num_nodes_));
  }
  num_nodes_ = num_nodes;
  if (frozen_) weighted_degrees_.resize(num_nodes, 0.0);
  return Status::OK();
}

Status WeightedGraph::SetEdge(NodeId u, NodeId v, double weight) {
  CAD_RETURN_NOT_OK(ValidateEndpoints(u, v, num_nodes_));
  if (weight < 0.0 || !std::isfinite(weight)) {
    return Status::InvalidArgument("edge weight must be finite and >= 0, got " +
                                   std::to_string(weight));
  }
  Thaw();
  const uint64_t key = NodePair::Make(u, v).Key();
  if (weight == 0.0) {
    weights_.erase(key);
  } else {
    weights_[key] = weight;
  }
  return Status::OK();
}

Status WeightedGraph::AddEdgeWeight(NodeId u, NodeId v, double delta) {
  CAD_RETURN_NOT_OK(ValidateEndpoints(u, v, num_nodes_));
  const double next = EdgeWeight(u, v) + delta;
  if (next < 0.0) {
    return Status::InvalidArgument(
        "AddEdgeWeight would make weight negative: " + std::to_string(next));
  }
  return SetEdge(u, v, next);
}

double WeightedGraph::EdgeWeight(NodeId u, NodeId v) const {
  if (u == v || u >= num_nodes_ || v >= num_nodes_) return 0.0;
  const NodePair pair = NodePair::Make(u, v);
  if (frozen_) {
    const auto it = std::lower_bound(
        edges_.begin(), edges_.end(), pair, [](const Edge& e, NodePair p) {
          return NodePair{e.u, e.v} < p;
        });
    return it != edges_.end() && it->u == pair.u && it->v == pair.v
               ? it->weight
               : 0.0;
  }
  const auto it = weights_.find(pair.Key());
  return it == weights_.end() ? 0.0 : it->second;
}

void WeightedGraph::Freeze() {
  if (frozen_) return;
  // The copy keeps the map's iteration order until the sort, and the sums
  // run over it in that order: the same additions Volume() and
  // WeightedDegrees() make on the map, so the frozen values carry the same
  // bits.
  edges_ = EdgesInMapOrder();
  weighted_degrees_.assign(num_nodes_, 0.0);
  double total = 0.0;
  for (const Edge& e : edges_) {
    weighted_degrees_[e.u] += e.weight;
    weighted_degrees_[e.v] += e.weight;
    total += e.weight;
  }
  volume_ = 2.0 * total;
  SortByPair(&edges_);
  std::unordered_map<uint64_t, double>().swap(weights_);
  frozen_ = true;
}

void WeightedGraph::Thaw() {
  if (!frozen_) return;
  weights_.reserve(edges_.size());
  for (const Edge& e : edges_) {
    weights_.emplace(NodePair{e.u, e.v}.Key(), e.weight);
  }
  std::vector<Edge>().swap(edges_);
  std::vector<double>().swap(weighted_degrees_);
  volume_ = 0.0;
  frozen_ = false;
}

SortedEdges::SortedEdges(const WeightedGraph& graph) {
  if (graph.frozen()) {
    edges_ = &graph.edges_;
  } else {
    copy_ = graph.Edges();
    edges_ = &copy_;
  }
}

std::vector<Edge> WeightedGraph::EdgesInMapOrder() const {
  std::vector<Edge> edges;
  edges.reserve(weights_.size());
  for (const auto& [key, weight] : weights_) {
    edges.push_back(Edge{static_cast<NodeId>(key >> 32),
                         static_cast<NodeId>(key & 0xffffffffULL), weight});
  }
  return edges;
}

std::vector<Edge> WeightedGraph::Edges() const {
  if (frozen_) return edges_;
  std::vector<Edge> edges = EdgesInMapOrder();
  SortByPair(&edges);
  return edges;
}

std::vector<double> WeightedGraph::WeightedDegrees() const {
  if (frozen_) return weighted_degrees_;
  std::vector<double> degrees(num_nodes_, 0.0);
  for (const auto& [key, weight] : weights_) {
    degrees[key >> 32] += weight;
    degrees[key & 0xffffffffULL] += weight;
  }
  return degrees;
}

std::vector<size_t> WeightedGraph::Degrees() const {
  std::vector<size_t> degrees(num_nodes_, 0);
  for (const Edge& e : SortedEdges(*this)) {
    ++degrees[e.u];
    ++degrees[e.v];
  }
  return degrees;
}

double WeightedGraph::Volume() const {
  if (frozen_) return volume_;
  double total = 0.0;
  for (const auto& [key, weight] : weights_) {
    (void)key;
    total += weight;
  }
  return 2.0 * total;
}

namespace {

/// Symmetric CSR straight from the sorted edge list, with an optional
/// diagonal. Row i holds the edges (u, i) for u < i in ascending u, then the
/// diagonal, then the edges (i, v) in ascending v: the sorted list delivers
/// both halves already in column order, so no row needs a sort.
CsrMatrix SymmetricCsr(size_t n, const SortedEdges& edges, double sign,
                       const std::vector<double>* diagonal,
                       double regularization) {
  const size_t diag = diagonal != nullptr ? 1 : 0;
  std::vector<size_t> lower(n, 0);
  std::vector<size_t> row_offsets(n + 1, 0);
  for (const Edge& e : edges) {
    ++lower[e.v];
    ++row_offsets[e.u + 1];
    ++row_offsets[e.v + 1];
  }
  for (size_t i = 0; i < n; ++i) {
    row_offsets[i + 1] += row_offsets[i] + diag;
  }
  const size_t nnz = row_offsets[n];
  std::vector<uint32_t> cols(nnz);
  std::vector<double> values(nnz);
  // next_lower[i] / next_upper[i]: the next free slot of row i's two halves.
  std::vector<size_t> next_lower(row_offsets.begin(), row_offsets.end() - 1);
  std::vector<size_t> next_upper(n);
  for (size_t i = 0; i < n; ++i) {
    next_upper[i] = row_offsets[i] + lower[i] + diag;
    if (diagonal != nullptr) {
      const size_t slot = row_offsets[i] + lower[i];
      cols[slot] = static_cast<uint32_t>(i);
      values[slot] = (*diagonal)[i] + regularization;
    }
  }
  for (const Edge& e : edges) {
    const double value = sign * e.weight;
    const size_t up = next_upper[e.u]++;
    cols[up] = e.v;
    values[up] = value;
    const size_t low = next_lower[e.v]++;
    cols[low] = e.u;
    values[low] = value;
  }
  return CsrMatrix(n, n, std::move(row_offsets), std::move(cols),
                   std::move(values));
}

}  // namespace

CsrMatrix WeightedGraph::ToAdjacencyCsr() const {
  return SymmetricCsr(num_nodes_, SortedEdges(*this), 1.0, nullptr, 0.0);
}

CsrMatrix WeightedGraph::ToLaplacianCsr(double regularization) const {
  const std::vector<double> degrees = WeightedDegrees();
  return SymmetricCsr(num_nodes_, SortedEdges(*this), -1.0, &degrees,
                      regularization);
}

DenseMatrix WeightedGraph::ToAdjacencyDense() const {
  DenseMatrix a(num_nodes_, num_nodes_);
  for (const Edge& e : SortedEdges(*this)) {
    a(e.u, e.v) = e.weight;
    a(e.v, e.u) = e.weight;
  }
  return a;
}

DenseMatrix WeightedGraph::ToLaplacianDense(double regularization) const {
  DenseMatrix l(num_nodes_, num_nodes_);
  const std::vector<double> degrees = WeightedDegrees();
  for (const Edge& e : SortedEdges(*this)) {
    l(e.u, e.v) = -e.weight;
    l(e.v, e.u) = -e.weight;
  }
  for (size_t i = 0; i < num_nodes_; ++i) {
    l(i, i) = degrees[i] + regularization;
  }
  return l;
}

std::vector<std::vector<WeightedGraph::Neighbor>>
WeightedGraph::AdjacencyLists() const {
  // Sorted input fills every list in node order: node x first receives its
  // smaller neighbors (edges (u, x), ascending u), then its larger ones.
  std::vector<std::vector<Neighbor>> lists(num_nodes_);
  for (const Edge& e : SortedEdges(*this)) {
    lists[e.u].push_back(Neighbor{e.v, e.weight});
    lists[e.v].push_back(Neighbor{e.u, e.weight});
  }
  return lists;
}

std::string WeightedGraph::ToString() const {
  std::ostringstream os;
  os << "WeightedGraph(n=" << num_nodes_ << ", m=" << num_edges()
     << ", volume=" << Volume() << ")";
  return os.str();
}

bool WeightedGraph::operator==(const WeightedGraph& other) const {
  if (num_nodes_ != other.num_nodes_) return false;
  if (!frozen_ && !other.frozen_) return weights_ == other.weights_;
  const SortedEdges mine(*this);
  const SortedEdges theirs(other);
  return std::equal(mine.begin(), mine.end(), theirs.begin(), theirs.end());
}

}  // namespace cad
