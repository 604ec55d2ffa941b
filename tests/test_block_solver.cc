// Lockstep block-PCG contract tests: SolveBlock must reproduce one
// single-RHS Solve per column bit for bit — solutions, residuals, and
// iteration counts — because its per-column floating-point operation
// sequence is identical.
// (The thread-sweep variant of this contract lives in
// test_parallel_stress.cc.)

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/random_graphs.h"
#include "graph/graph.h"
#include "linalg/conjugate_gradient.h"
#include "linalg/dense_matrix.h"
#include "linalg/incomplete_cholesky.h"

namespace cad {
namespace {

CsrMatrix LaplacianFixture(size_t n, uint64_t seed) {
  RandomGraphOptions opts;
  opts.num_nodes = n;
  opts.average_degree = 6.0;
  opts.seed = seed;
  const WeightedGraph g = MakeRandomSparseGraph(opts);
  return g.ToLaplacianCsr(1e-6 * std::max(g.Volume(), 1.0));
}

/// k mean-centered right-hand sides as an n x k block.
DenseMatrix RhsBlock(size_t n, size_t k, uint64_t seed) {
  DenseMatrix b(n, k);
  Rng rng(seed);
  for (size_t c = 0; c < k; ++c) {
    double mean = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double v = rng.Normal();
      b(i, c) = v;
      mean += v;
    }
    mean /= static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) b(i, c) -= mean;
  }
  return b;
}

std::vector<double> Column(const DenseMatrix& b, size_t c) {
  std::vector<double> column(b.rows());
  for (size_t i = 0; i < b.rows(); ++i) column[i] = b(i, c);
  return column;
}

void ExpectBitIdentical(double expected, double actual, const char* what,
                        size_t i, size_t c) {
  EXPECT_EQ(std::bit_cast<uint64_t>(expected), std::bit_cast<uint64_t>(actual))
      << what << " differs at (" << i << ", " << c << "): " << expected
      << " vs " << actual;
}

void ExpectBlockMatchesSerial(const CsrMatrix& a, const DenseMatrix& b,
                              const CgOptions& options,
                              const CgSolveContext& context = {}) {
  const ConjugateGradientSolver solver(options);
  DenseMatrix x_block;
  Result<std::vector<CgSummary>> block =
      solver.SolveBlock(a, b, &x_block, context);
  ASSERT_TRUE(block.ok()) << block.status().ToString();

  // The reference: one single-RHS Solve per column. A cached IC(0) factor
  // is the factor of `a`, which Solve recomputes bit for bit.
  ASSERT_EQ(block->size(), b.cols());
  for (size_t c = 0; c < b.cols(); ++c) {
    std::vector<double> x_serial;
    Result<CgSummary> serial =
        context.initial_guess != nullptr
            ? solver.Solve(a, Column(b, c), Column(*context.initial_guess, c),
                           &x_serial)
            : solver.Solve(a, Column(b, c), &x_serial);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_EQ((*block)[c].iterations, serial->iterations)
        << "iteration count differs for system " << c;
    EXPECT_EQ((*block)[c].converged, serial->converged);
    ExpectBitIdentical(serial->relative_residual,
                       (*block)[c].relative_residual, "residual", 0, c);
    for (size_t i = 0; i < b.rows(); ++i) {
      ExpectBitIdentical(x_serial[i], x_block(i, c), "solution", i, c);
    }
  }
}

class BlockSolverWidths : public ::testing::TestWithParam<size_t> {};

TEST_P(BlockSolverWidths, BitIdenticalToSerialAcrossPreconditioners) {
  const size_t k = GetParam();
  const CsrMatrix a = LaplacianFixture(120, 77);
  const DenseMatrix b = RhsBlock(120, k, 123);
  for (CgPreconditioner preconditioner :
       {CgPreconditioner::kNone, CgPreconditioner::kJacobi,
        CgPreconditioner::kIncompleteCholesky}) {
    SCOPED_TRACE(CgPreconditionerToString(preconditioner));
    CgOptions options;
    options.preconditioner = preconditioner;
    ExpectBlockMatchesSerial(a, b, options);
  }
}

// 17 and 50 span two and four column chunks of uneven width.
INSTANTIATE_TEST_SUITE_P(Widths, BlockSolverWidths,
                         ::testing::Values(1, 3, 8, 17, 50));

TEST(BlockSolverTest, ZeroColumnConvergesInZeroIterationsAndStaysZero) {
  const CsrMatrix a = LaplacianFixture(40, 5);
  DenseMatrix b = RhsBlock(40, 3, 9);
  for (size_t i = 0; i < 40; ++i) b(i, 1) = 0.0;
  const ConjugateGradientSolver solver;
  DenseMatrix x;
  Result<std::vector<CgSummary>> summaries = solver.SolveBlock(a, b, &x);
  ASSERT_TRUE(summaries.ok());
  EXPECT_EQ((*summaries)[1].iterations, 0u);
  EXPECT_TRUE((*summaries)[1].converged);
  for (size_t i = 0; i < 40; ++i) EXPECT_EQ(x(i, 1), 0.0);
  EXPECT_GT((*summaries)[0].iterations, 0u);
  EXPECT_GT((*summaries)[2].iterations, 0u);
}

TEST(BlockSolverTest, InitialGuessBlockMatchesSerialWarmSolves) {
  // Wide enough for two chunks, so the second reads its guess columns at an
  // offset; one zero column must ignore its guess.
  const size_t k = 20;
  const CsrMatrix a = LaplacianFixture(90, 31);
  DenseMatrix b = RhsBlock(90, k, 32);
  for (size_t i = 0; i < 90; ++i) b(i, 15) = 0.0;
  // A deliberately mediocre guess: the rhs itself, scaled (plus a nonzero
  // guess for the zero column).
  DenseMatrix guess(90, k);
  for (size_t i = 0; i < 90; ++i) {
    for (size_t c = 0; c < k; ++c) guess(i, c) = 0.1 * b(i, c);
    guess(i, 15) = 1.0;
  }
  CgSolveContext context;
  context.initial_guess = &guess;
  CgOptions options;
  ExpectBlockMatchesSerial(a, b, options, context);
}

TEST(BlockSolverTest, ExactGuessBlockConvergesInZeroIterations) {
  const CsrMatrix a = LaplacianFixture(60, 41);
  // Manufacture solutions first, then the rhs block B = A X.
  const DenseMatrix x_true = RhsBlock(60, 3, 42);
  DenseMatrix b;
  a.MultiplyBlock(x_true, &b);
  CgSolveContext context;
  context.initial_guess = &x_true;
  const ConjugateGradientSolver solver;
  DenseMatrix x;
  Result<std::vector<CgSummary>> summaries =
      solver.SolveBlock(a, b, &x, context);
  ASSERT_TRUE(summaries.ok());
  for (const CgSummary& summary : *summaries) {
    EXPECT_TRUE(summary.converged);
    EXPECT_EQ(summary.iterations, 0u);
  }
}

TEST(BlockSolverTest, CachedFactorMatchesFreshFactorBitwise) {
  const CsrMatrix a = LaplacianFixture(80, 51);
  const DenseMatrix b = RhsBlock(80, 4, 52);
  CgOptions options;
  options.preconditioner = CgPreconditioner::kIncompleteCholesky;
  const ConjugateGradientSolver solver(options);

  DenseMatrix x_fresh;
  Result<std::vector<CgSummary>> fresh = solver.SolveBlock(a, b, &x_fresh);
  ASSERT_TRUE(fresh.ok());

  Result<IncompleteCholesky> factor = IncompleteCholesky::Factor(a);
  ASSERT_TRUE(factor.ok());
  CgSolveContext context;
  context.cached_factor = &*factor;
  DenseMatrix x_cached;
  Result<std::vector<CgSummary>> cached =
      solver.SolveBlock(a, b, &x_cached, context);
  ASSERT_TRUE(cached.ok());

  for (size_t c = 0; c < 4; ++c) {
    EXPECT_EQ((*fresh)[c].iterations, (*cached)[c].iterations);
    for (size_t i = 0; i < 80; ++i) {
      ExpectBitIdentical(x_fresh(i, c), x_cached(i, c), "solution", i, c);
    }
  }
}

TEST(BlockSolverTest, IndefiniteMatrixReportsBreakdown) {
  CooMatrix coo(2, 2);
  coo.Add(0, 0, 1.0);
  coo.Add(1, 1, 1.0);
  coo.AddSymmetric(0, 1, 2.0);
  DenseMatrix b(2, 2);
  b(0, 0) = 1.0;
  b(1, 0) = -3.0;
  b(0, 1) = 2.0;
  b(1, 1) = 1.0;
  CgOptions options;
  options.preconditioner = CgPreconditioner::kNone;
  DenseMatrix x;
  Result<std::vector<CgSummary>> summaries =
      ConjugateGradientSolver(options).SolveBlock(coo.ToCsr(), b, &x);
  EXPECT_FALSE(summaries.ok());
  EXPECT_EQ(summaries.status().code(), StatusCode::kNumericalError);
}

TEST(BlockSolverTest, RejectsMismatchedGuessShape) {
  const CsrMatrix a = LaplacianFixture(30, 61);
  const DenseMatrix b = RhsBlock(30, 2, 62);
  DenseMatrix guess(30, 3);  // wrong column count
  CgSolveContext context;
  context.initial_guess = &guess;
  DenseMatrix x;
  EXPECT_FALSE(
      ConjugateGradientSolver().SolveBlock(a, b, &x, context).ok());
}

TEST(SpMMKernelTest, MultiplyBlockMatchesPerColumnSpMV) {
  const CsrMatrix a = LaplacianFixture(100, 81);
  const DenseMatrix x = RhsBlock(100, 7, 82);
  DenseMatrix y;
  a.MultiplyBlock(x, &y);
  for (size_t c = 0; c < 7; ++c) {
    std::vector<double> column(100);
    for (size_t i = 0; i < 100; ++i) column[i] = x(i, c);
    const std::vector<double> expected = a.Multiply(column);
    for (size_t i = 0; i < 100; ++i) {
      ExpectBitIdentical(expected[i], y(i, c), "SpMM", i, c);
    }
  }
}

TEST(SpMMKernelTest, MultiplyAccumulateBlockMatchesPerColumnAccumulate) {
  const CsrMatrix a = LaplacianFixture(64, 91);
  const DenseMatrix x = RhsBlock(64, 5, 92);
  DenseMatrix y = RhsBlock(64, 5, 93);
  DenseMatrix y_block = y;
  a.MultiplyAccumulateBlock(-1.0, x, &y_block);
  for (size_t c = 0; c < 5; ++c) {
    std::vector<double> x_col(64);
    std::vector<double> y_col(64);
    for (size_t i = 0; i < 64; ++i) {
      x_col[i] = x(i, c);
      y_col[i] = y(i, c);
    }
    a.MultiplyAccumulate(-1.0, x_col, &y_col);
    for (size_t i = 0; i < 64; ++i) {
      ExpectBitIdentical(y_col[i], y_block(i, c), "SpMM accumulate", i, c);
    }
  }
}

TEST(SpMMKernelTest, BlockedIcApplyMatchesPerColumnApply) {
  const CsrMatrix a = LaplacianFixture(96, 95);
  Result<IncompleteCholesky> factor = IncompleteCholesky::Factor(a);
  ASSERT_TRUE(factor.ok());
  const DenseMatrix b = RhsBlock(96, 6, 96);
  DenseMatrix x;
  factor->ApplyBlock(b, &x);
  for (size_t c = 0; c < 6; ++c) {
    std::vector<double> column(96);
    for (size_t i = 0; i < 96; ++i) column[i] = b(i, c);
    const std::vector<double> expected = factor->Apply(column);
    for (size_t i = 0; i < 96; ++i) {
      ExpectBitIdentical(expected[i], x(i, c), "IC apply", i, c);
    }
  }
}

}  // namespace
}  // namespace cad
