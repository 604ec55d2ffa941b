#include "graph/relabel.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "commute/approx_commute.h"
#include "datagen/rmat.h"
#include "graph/graph.h"
#include "linalg/conjugate_gradient.h"
#include "linalg/sparse_matrix.h"

namespace cad {
namespace {

WeightedGraph StarPlusPath() {
  // Node 0 is the hub (degree 5); 1..5 hang off it and 4-5-6 form a path.
  WeightedGraph g(7);
  for (NodeId v = 1; v <= 5; ++v) CAD_CHECK_OK(g.SetEdge(0, v, 1.0 + v));
  CAD_CHECK_OK(g.SetEdge(4, 5, 0.5));
  CAD_CHECK_OK(g.SetEdge(5, 6, 0.25));
  return g;
}

WeightedGraph PowerLawGraph() {
  RmatOptions options;
  options.num_nodes = 400;
  options.num_edges = 1600;
  options.seed = 7;
  Result<WeightedGraph> graph = MakeRmatGraph(options);
  CAD_CHECK(graph.ok()) << graph.status().ToString();
  return std::move(graph).ValueOrDie();
}

TEST(RelabelTest, PermutationIsAValidInverse) {
  const Relabeling relabeling = DegreeOrderRelabeling(PowerLawGraph());
  ASSERT_EQ(relabeling.new_id.size(), relabeling.old_id.size());
  for (size_t i = 0; i < relabeling.size(); ++i) {
    EXPECT_EQ(relabeling.old_id[relabeling.new_id[i]], i);
  }
}

TEST(RelabelTest, OrdersByDescendingDegreeWithIdTiebreak) {
  const WeightedGraph graph = StarPlusPath();
  const Relabeling relabeling = DegreeOrderRelabeling(graph);
  const std::vector<size_t> degrees = graph.Degrees();
  for (size_t p = 0; p + 1 < relabeling.old_id.size(); ++p) {
    const size_t da = degrees[relabeling.old_id[p]];
    const size_t db = degrees[relabeling.old_id[p + 1]];
    EXPECT_TRUE(da > db ||
                (da == db && relabeling.old_id[p] < relabeling.old_id[p + 1]))
        << "position " << p;
  }
  // The hub must land first.
  EXPECT_EQ(relabeling.old_id[0], 0u);
  EXPECT_EQ(relabeling.new_id[0], 0u);
}

TEST(RelabelTest, PermuteCsrRowsMatchesDensePermutation) {
  const WeightedGraph graph = StarPlusPath();
  const CsrMatrix laplacian = graph.ToLaplacianCsr(1e-6);
  const Relabeling relabeling = DegreeOrderRelabeling(graph);
  const CsrMatrix permuted = PermuteCsrRows(laplacian, relabeling);
  ASSERT_TRUE(permuted.CheckValid().ok());
  const DenseMatrix original = laplacian.ToDense();
  const DenseMatrix dense = permuted.ToDense();
  for (size_t i = 0; i < graph.num_nodes(); ++i) {
    for (size_t j = 0; j < graph.num_nodes(); ++j) {
      EXPECT_EQ(dense(relabeling.new_id[i], relabeling.new_id[j]),
                original(i, j));
    }
  }
}

TEST(RelabelTest, PermutedRowsKeepStoredOrder) {
  // The permuted matrix advertises unsorted rows (stored order preserved),
  // and a row-sweep product over it must be bitwise the original sweep of
  // the corresponding original row: same entries, same sequence.
  const WeightedGraph graph = PowerLawGraph();
  const CsrMatrix laplacian = graph.ToLaplacianCsr(1e-6);
  const Relabeling relabeling = DegreeOrderRelabeling(graph);
  const CsrMatrix permuted = PermuteCsrRows(laplacian, relabeling);
  EXPECT_FALSE(permuted.sorted_rows());

  const size_t n = graph.num_nodes();
  const size_t k = 3;
  DenseMatrix x(n, k);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < k; ++c) {
      x(i, c) = std::sin(static_cast<double>(i * k + c + 1));
    }
  }
  DenseMatrix x_perm(n, k);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < k; ++c) x_perm(relabeling.new_id[i], c) = x(i, c);
  }
  DenseMatrix y(n, k);
  DenseMatrix y_perm(n, k);
  laplacian.MultiplyAccumulateBlock(1.0, x, &y);
  permuted.MultiplyAccumulateBlock(1.0, x_perm, &y_perm);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < k; ++c) {
      const double a = y(i, c);
      const double b = y_perm(relabeling.new_id[i], c);
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
          << "row " << i << " col " << c;
    }
  }
}

TEST(RelabelTest, RelabeledEmbeddingIsBitIdentical) {
  const WeightedGraph graph = PowerLawGraph();
  ApproxCommuteOptions options;
  options.embedding_dim = 6;
  options.cg.tolerance = 1e-10;

  Result<ApproxCommuteEmbedding> plain =
      ApproxCommuteEmbedding::Build(graph, options);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  options.relabel = true;
  Result<ApproxCommuteEmbedding> relabeled =
      ApproxCommuteEmbedding::Build(graph, options);
  ASSERT_TRUE(relabeled.ok()) << relabeled.status().ToString();

  const DenseMatrix& a = plain->embedding();
  const DenseMatrix& b = relabeled->embedding();
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.data().size() * sizeof(double)),
            0);
  EXPECT_EQ(plain->total_cg_iterations(), relabeled->total_cg_iterations());
}

TEST(RelabelTest, RelabeledBlockSolverIsBitIdenticalToo) {
  // Wide enough for two column chunks, solved on four threads.
  const WeightedGraph graph = PowerLawGraph();
  ApproxCommuteOptions options;
  options.embedding_dim = 20;
  options.cg.num_threads = 4;

  Result<ApproxCommuteEmbedding> plain =
      ApproxCommuteEmbedding::Build(graph, options);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  options.relabel = true;
  Result<ApproxCommuteEmbedding> relabeled =
      ApproxCommuteEmbedding::Build(graph, options);
  ASSERT_TRUE(relabeled.ok()) << relabeled.status().ToString();

  const DenseMatrix& a = plain->embedding();
  const DenseMatrix& b = relabeled->embedding();
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.data().size() * sizeof(double)),
            0);
}

/// The reference embedding the default (stream-order) construction defines:
/// rebuilds the JL right-hand sides and solves each column with one
/// single-RHS Solve. Returns the k x n embedding.
DenseMatrix SolveEmbeddingPerColumn(const WeightedGraph& graph,
                                    const ApproxCommuteOptions& options) {
  const size_t n = graph.num_nodes();
  const size_t k = options.embedding_dim;
  DenseMatrix rhs(k, n);
  Rng rng(options.seed);
  const double inv_sqrt_k = 1.0 / std::sqrt(static_cast<double>(k));
  std::vector<double> q(k);
  for (const Edge& edge : SortedEdges(graph)) {
    const double scale = std::sqrt(edge.weight) * inv_sqrt_k;
    for (size_t r = 0; r < k; ++r) q[r] = rng.Rademacher() * scale;
    for (size_t r = 0; r < k; ++r) {
      rhs(r, edge.u) += q[r];
      rhs(r, edge.v) -= q[r];
    }
  }
  const CsrMatrix laplacian = graph.ToLaplacianCsr(
      options.commute.regularization_scale * std::max(graph.Volume(), 1.0));
  const ConjugateGradientSolver solver(options.cg);
  DenseMatrix z(k, n);
  for (size_t r = 0; r < k; ++r) {
    const std::vector<double> b(rhs.row(r), rhs.row(r) + n);
    std::vector<double> x;
    CAD_CHECK_OK(solver.Solve(laplacian, b, &x).status());
    std::copy(x.begin(), x.end(), z.mutable_row(r));
  }
  return z;
}

/// Every optimization at once — relabeling, several column chunks, four
/// threads — must match one single-RHS Solve per column bit for bit.
TEST(RelabelTest, FullyOptimizedConfigIsBitIdentical) {
  RmatOptions graph_options;
  graph_options.num_nodes = 250;
  graph_options.num_edges = 1000;
  graph_options.seed = 12;
  Result<WeightedGraph> graph = MakeRmatGraph(graph_options);
  ASSERT_TRUE(graph.ok());

  ApproxCommuteOptions optimized;
  optimized.embedding_dim = 40;
  optimized.relabel = true;
  optimized.cg.num_threads = 4;
  Result<ApproxCommuteEmbedding> tuned =
      ApproxCommuteEmbedding::Build(*graph, optimized);
  ASSERT_TRUE(tuned.ok()) << tuned.status().ToString();

  const DenseMatrix reference = SolveEmbeddingPerColumn(*graph, optimized);
  const DenseMatrix& b = tuned->embedding();
  ASSERT_EQ(reference.rows(), b.rows());
  ASSERT_EQ(reference.cols(), b.cols());
  EXPECT_EQ(std::memcmp(reference.data().data(), b.data().data(),
                        b.data().size() * sizeof(double)),
            0);
}

TEST(RelabelTest, RelabelRejectsIncompleteCholesky) {
  ApproxCommuteOptions options;
  options.embedding_dim = 4;
  options.relabel = true;
  options.cg.preconditioner = CgPreconditioner::kIncompleteCholesky;
  Result<ApproxCommuteEmbedding> build =
      ApproxCommuteEmbedding::Build(StarPlusPath(), options);
  EXPECT_FALSE(build.ok());
}

}  // namespace
}  // namespace cad
