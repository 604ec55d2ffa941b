#include "datagen/rmat.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "datagen/random_graphs.h"

namespace cad {

namespace {

/// Per-level normalized quadrant prefix sums: at depth d the descent picks
/// quadrant a/b/c/d by comparing one uniform draw against sum_a[d] <
/// sum_ab[d] < sum_abc[d]. Each level's parameters are the base (a, b, c, d)
/// scaled by independent U(1-noise, 1+noise) factors and renormalized, so
/// the generated graph is not perfectly self-similar.
struct QuadrantTable {
  std::vector<double> sum_a;
  std::vector<double> sum_ab;
  std::vector<double> sum_abc;
};

QuadrantTable MakeQuadrantTable(const RmatOptions& options, Rng* rng) {
  const double base_d = 1.0 - options.a - options.b - options.c;
  size_t levels = 1;
  while ((static_cast<size_t>(1) << levels) < options.num_nodes) ++levels;
  QuadrantTable table;
  table.sum_a.reserve(levels);
  table.sum_ab.reserve(levels);
  table.sum_abc.reserve(levels);
  for (size_t level = 0; level < levels; ++level) {
    const double a = options.a * rng->Uniform(1.0 - options.noise,
                                              1.0 + options.noise);
    const double b = options.b * rng->Uniform(1.0 - options.noise,
                                              1.0 + options.noise);
    const double c = options.c * rng->Uniform(1.0 - options.noise,
                                              1.0 + options.noise);
    const double d = base_d * rng->Uniform(1.0 - options.noise,
                                           1.0 + options.noise);
    const double total = a + b + c + d;
    table.sum_a.push_back(a / total);
    table.sum_ab.push_back((a + b) / total);
    table.sum_abc.push_back((a + b + c) / total);
  }
  return table;
}

/// One recursive 2x2 descent over the n x n adjacency matrix. Odd ranges
/// split as (ceil, floor), so any n works, matching the gen_RMat idiom of
/// tracking a remaining range plus an offset per axis.
void DrawEndpoints(const QuadrantTable& table, size_t n, Rng* rng,
                   NodeId* u_out, NodeId* v_out) {
  size_t range_u = n;
  size_t range_v = n;
  size_t off_u = 0;
  size_t off_v = 0;
  size_t depth = 0;
  const size_t levels = table.sum_a.size();
  while (range_u > 1 || range_v > 1) {
    const double r = rng->Uniform();
    const size_t level = depth < levels ? depth : levels - 1;
    // Quadrants: a = (low u, low v), b = (low u, high v), c = (high u,
    // low v), d = (high u, high v).
    const bool high_u = r >= table.sum_ab[level];
    const bool high_v = (r >= table.sum_a[level] && r < table.sum_ab[level]) ||
                        r >= table.sum_abc[level];
    if (range_u > 1) {
      const size_t low = (range_u + 1) / 2;
      if (high_u) {
        off_u += low;
        range_u -= low;
      } else {
        range_u = low;
      }
    }
    if (range_v > 1) {
      const size_t low = (range_v + 1) / 2;
      if (high_v) {
        off_v += low;
        range_v -= low;
      } else {
        range_v = low;
      }
    }
    ++depth;
  }
  *u_out = static_cast<NodeId>(off_u);
  *v_out = static_cast<NodeId>(off_v);
}

}  // namespace

Status ValidateRmatOptions(const RmatOptions& options) {
  if (options.num_nodes < 2) {
    return Status::InvalidArgument("R-MAT: num_nodes must be >= 2, got " +
                                   std::to_string(options.num_nodes));
  }
  const double d = 1.0 - options.a - options.b - options.c;
  if (options.a < 0.0 || options.b < 0.0 || options.c < 0.0 || d < 0.0) {
    return Status::InvalidArgument(
        "R-MAT: quadrant probabilities must be >= 0 and sum to <= 1");
  }
  if (options.noise < 0.0 || options.noise >= 1.0) {
    return Status::InvalidArgument("R-MAT: noise must be in [0, 1), got " +
                                   std::to_string(options.noise));
  }
  if (options.min_weight > options.max_weight || options.min_weight <= 0.0) {
    return Status::InvalidArgument(
        "R-MAT: weights must satisfy 0 < min_weight <= max_weight");
  }
  const double max_edges = 0.5 * static_cast<double>(options.num_nodes) *
                           static_cast<double>(options.num_nodes - 1);
  if (static_cast<double>(options.num_edges) > max_edges) {
    return Status::InvalidArgument(
        "R-MAT: num_edges " + std::to_string(options.num_edges) +
        " exceeds the simple-graph maximum for n = " +
        std::to_string(options.num_nodes));
  }
  return Status::OK();
}

namespace {

/// Draws one accepted (u < v) sample; self-loops are rejected and redrawn.
Edge DrawEdge(const QuadrantTable& table, const RmatOptions& options,
              Rng* rng) {
  NodeId u = 0;
  NodeId v = 0;
  do {
    DrawEndpoints(table, options.num_nodes, rng, &u, &v);
  } while (u == v);
  if (u > v) std::swap(u, v);
  const double weight =
      options.min_weight < options.max_weight
          ? rng->Uniform(options.min_weight, options.max_weight)
          : options.min_weight;
  return Edge{u, v, weight};
}

}  // namespace

std::vector<Edge> RmatEdgeSamples(const RmatOptions& options, size_t count) {
  CAD_CHECK_OK(ValidateRmatOptions(options));
  Rng rng(options.seed);
  const QuadrantTable table = MakeQuadrantTable(options, &rng);
  std::vector<Edge> samples;
  samples.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    samples.push_back(DrawEdge(table, options, &rng));
  }
  return samples;
}

Result<WeightedGraph> MakeRmatGraph(const RmatOptions& options) {
  CAD_RETURN_NOT_OK(ValidateRmatOptions(options));
  Rng rng(options.seed);
  const QuadrantTable table = MakeQuadrantTable(options, &rng);
  WeightedGraph graph(options.num_nodes);
  // Hub collisions are common in a power law; draw until the distinct-edge
  // target is met, folding duplicate weight into the existing edge. The
  // attempt budget only trips when the requested density pushes against the
  // quadrant skew (e.g. most of the mass in one corner of a small matrix).
  const size_t max_attempts = 20 * options.num_edges + 1000;
  size_t attempts = 0;
  while (graph.num_edges() < options.num_edges) {
    if (attempts++ >= max_attempts) {
      return Status::Internal(
          "R-MAT: duplicate rate too high to reach " +
          std::to_string(options.num_edges) + " distinct edges within " +
          std::to_string(max_attempts) + " draws (reached " +
          std::to_string(graph.num_edges()) + ")");
    }
    const Edge edge = DrawEdge(table, options, &rng);
    CAD_RETURN_NOT_OK(graph.AddEdgeWeight(edge.u, edge.v, edge.weight));
  }
  return graph;
}

Result<TemporalGraphSequence> MakeRmatTemporalSequence(
    const RmatTemporalOptions& options, std::vector<Edge>* injected) {
  if (options.num_snapshots == 0) {
    return Status::InvalidArgument("R-MAT temporal: need >= 1 snapshot");
  }
  if (options.jitter < 0.0 || options.jitter >= 1.0 ||
      options.rewire_fraction < 0.0 || options.rewire_fraction > 1.0 ||
      options.anomaly_fraction < 0.0 || options.anomaly_fraction > 1.0) {
    return Status::InvalidArgument(
        "R-MAT temporal: jitter/rewire/anomaly fractions out of range");
  }
  if (injected != nullptr) injected->clear();

  WeightedGraph current;
  CAD_ASSIGN_OR_RETURN(current, MakeRmatGraph(options.base));
  const size_t n = current.num_nodes();
  Rng rng(options.base.seed ^ 0x7e3a9d4b5c6f1e2dULL);

  TemporalGraphSequence sequence(n);
  CAD_RETURN_NOT_OK(sequence.Append(current));
  for (size_t t = 1; t < options.num_snapshots; ++t) {
    current = PerturbGraph(current, options.jitter, options.rewire_fraction,
                           &rng);
    if (t == options.anomaly_snapshot && options.anomaly_fraction > 0.0) {
      // The anomaly burst: delete a random slice of the (power-law) edge
      // set and replace it with uniform pairs. Uniform edges ignore the
      // degree structure, which is exactly the localized change the
      // commute-time score separates from background churn.
      const std::vector<Edge> edges = current.Edges();
      const size_t burst = std::max<size_t>(
          1, static_cast<size_t>(options.anomaly_fraction *
                                 static_cast<double>(edges.size())));
      const std::vector<size_t> doomed =
          rng.SampleWithoutReplacement(edges.size(), burst);
      for (const size_t index : doomed) {
        const Edge& edge = edges[index];
        if (injected != nullptr) injected->push_back(edge);
        CAD_RETURN_NOT_OK(current.SetEdge(edge.u, edge.v, 0.0));
      }
      size_t added = 0;
      while (added < burst) {
        const auto u =
            static_cast<NodeId>(rng.UniformInt(static_cast<uint64_t>(n)));
        const auto v =
            static_cast<NodeId>(rng.UniformInt(static_cast<uint64_t>(n)));
        if (u == v || current.EdgeWeight(u, v) != 0.0) continue;
        const double weight = rng.Uniform(0.5, 2.0);
        CAD_RETURN_NOT_OK(current.SetEdge(u, v, weight));
        if (injected != nullptr) {
          injected->push_back(Edge{std::min(u, v), std::max(u, v), weight});
        }
        ++added;
      }
    }
    CAD_RETURN_NOT_OK(sequence.Append(current));
  }
  return sequence;
}

}  // namespace cad
