#ifndef CAD_DATAGEN_RMAT_H_
#define CAD_DATAGEN_RMAT_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "graph/temporal_graph.h"

namespace cad {

/// \brief Options for the R-MAT / power-law generator (Chakrabarti-Zhan-
/// Faloutsos). Edges are placed by recursive 2x2 quadrant descent over the
/// adjacency matrix with per-level noisy partition probabilities, which
/// yields the heavy-tailed degree distributions of real networks — the
/// regime where degree-ordered relabeling and the approximate commute
/// engine actually matter (PAPERS.md: CADDeLaG runs at 10^6+ nodes).
struct RmatOptions {
  /// Number of nodes. Need not be a power of two; the descent splits odd
  /// ranges as (ceil, floor).
  size_t num_nodes = 1 << 20;
  /// Number of *distinct* undirected edges to place. Duplicate draws
  /// accumulate weight onto the existing edge and do not count.
  size_t num_edges = 10 << 20;
  /// Quadrant probabilities; d = 1 - a - b - c falls out. The defaults are
  /// the Graph500 parameters (a=0.57, b=c=0.19) producing a pronounced
  /// power law.
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
  /// Per-level multiplicative jitter on (a, b, c, d): each recursion depth
  /// uses parameters scaled by U(1-noise, 1+noise) and renormalized. This
  /// breaks the perfectly self-similar structure of noiseless R-MAT
  /// (per-level noisy parameters, cf. the gen_RMat exemplar in SNIPPETS.md).
  double noise = 0.1;
  /// Edge weights drawn U(min_weight, max_weight); equal bounds give a
  /// constant weight without consuming a draw.
  double min_weight = 1.0;
  double max_weight = 1.0;
  /// Seed. Equal seeds produce byte-identical edge streams on all
  /// platforms and at any thread count (generation is strictly sequential).
  uint64_t seed = 1;
};

/// \brief InvalidArgument naming the first malformed field of `options`
/// (node count, quadrant probabilities, noise, weights, or an edge count
/// past the simple-graph maximum); OK otherwise.
[[nodiscard]] Status ValidateRmatOptions(const RmatOptions& options);

/// \brief One deterministic R-MAT edge draw stream.
///
/// Returns exactly `count` accepted samples in draw order, each canonical
/// (u < v); self-loop draws are rejected and redrawn. Duplicates are kept —
/// this is the raw event stream shape (event ingestion accumulates weight),
/// used by make_demo_data's rmat_events output and the determinism tests.
std::vector<Edge> RmatEdgeSamples(const RmatOptions& options, size_t count);

/// \brief Generates an undirected weighted R-MAT graph with exactly
/// `options.num_edges` distinct edges (duplicate draws fold their weight
/// into the existing edge). Returns InvalidArgument for malformed
/// parameters and Internal if the duplicate rate makes the target edge
/// count unreachable within the attempt budget.
[[nodiscard]] Result<WeightedGraph> MakeRmatGraph(const RmatOptions& options);

/// \brief Options for the temporal R-MAT stream: a base power-law snapshot
/// perturbed into T snapshots of background churn, with a burst of
/// uniform-random rewiring injected at one snapshot as the anomaly (uniform
/// edges are exactly the structure CAD flags against a power-law
/// background).
struct RmatTemporalOptions {
  RmatOptions base;
  /// Total snapshots T (>= 1); snapshot 0 is the base graph.
  size_t num_snapshots = 4;
  /// Background churn per step: weight rescale U(1-jitter, 1+jitter) plus
  /// `rewire_fraction` of edges deleted and replaced (see PerturbGraph).
  double jitter = 0.05;
  double rewire_fraction = 0.01;
  /// Snapshot index receiving the anomaly burst; >= num_snapshots disables
  /// injection.
  size_t anomaly_snapshot = 2;
  /// Fraction of edges rewired by the burst, on top of background churn.
  double anomaly_fraction = 0.02;
};

/// \brief Builds the temporal sequence. If `injected` is non-null it
/// receives the ground-truth anomalous edges (both the deleted originals
/// and the uniform replacements, weights as of the anomalous snapshot's
/// transition).
[[nodiscard]] Result<TemporalGraphSequence> MakeRmatTemporalSequence(
    const RmatTemporalOptions& options,
    std::vector<Edge>* injected = nullptr);

}  // namespace cad

#endif  // CAD_DATAGEN_RMAT_H_
