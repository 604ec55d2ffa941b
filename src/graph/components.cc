#include "graph/components.h"

#include <vector>

namespace cad {

ComponentLabeling ConnectedComponents(const WeightedGraph& graph) {
  const size_t n = graph.num_nodes();
  constexpr uint32_t kUnassigned = 0xffffffffu;
  ComponentLabeling labeling;
  labeling.component.assign(n, kUnassigned);

  // Unweighted CSR adjacency straight from the sorted edge list.
  const SortedEdges edges(graph);
  std::vector<size_t> offsets(n + 1, 0);
  for (const Edge& e : edges) {
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
  std::vector<NodeId> neighbors(offsets[n]);
  {
    std::vector<size_t> next(offsets.begin(), offsets.end() - 1);
    for (const Edge& e : edges) {
      neighbors[next[e.u]++] = e.v;
      neighbors[next[e.v]++] = e.u;
    }
  }

  // BFS with the visit order as the queue: component ids follow each
  // component's smallest node, whatever the neighbor order.
  std::vector<NodeId> queue;
  queue.reserve(n);
  for (size_t start = 0; start < n; ++start) {
    if (labeling.component[start] != kUnassigned) continue;
    const auto id = static_cast<uint32_t>(labeling.num_components++);
    labeling.component[start] = id;
    const size_t first = queue.size();
    queue.push_back(static_cast<NodeId>(start));
    for (size_t head = first; head < queue.size(); ++head) {
      const NodeId node = queue[head];
      for (size_t p = offsets[node]; p < offsets[node + 1]; ++p) {
        if (labeling.component[neighbors[p]] == kUnassigned) {
          labeling.component[neighbors[p]] = id;
          queue.push_back(neighbors[p]);
        }
      }
    }
    labeling.sizes.push_back(queue.size() - first);
  }
  return labeling;
}

bool IsConnected(const WeightedGraph& graph) {
  if (graph.num_nodes() == 0) return true;
  return ConnectedComponents(graph).num_components == 1;
}

}  // namespace cad
