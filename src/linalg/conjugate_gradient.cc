#include "linalg/conjugate_gradient.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>

#include "common/check.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "obs/obs.h"

#include "linalg/incomplete_cholesky.h"
#include "linalg/vector_ops.h"

namespace cad {

namespace {

/// Widest column chunk SolveBlock advances in lockstep. Sixteen columns keep
/// the SpMM's per-row sums in registers (see sparse_matrix.cc) and a chunk's
/// four n x 16 work blocks small.
constexpr size_t kBlockChunkWidth = 16;

/// Applies M^{-1} r -> z for the configured preconditioner.
using Preconditioner =
    std::function<void(const std::vector<double>&, std::vector<double>*)>;

/// Builds the preconditioner application for one matrix; the IC factor (if
/// any) is owned by the returned closure.
Result<Preconditioner> MakePreconditioner(const CsrMatrix& a,
                                          CgPreconditioner kind) {
  switch (kind) {
    case CgPreconditioner::kNone:
      return Preconditioner(
          [](const std::vector<double>& r, std::vector<double>* z) {
            *z = r;
          });
    case CgPreconditioner::kJacobi: {
      // Zero diagonal entries (isolated Laplacian nodes) fall back to
      // identity scaling.
      auto inv_diag = std::make_shared<std::vector<double>>(a.Diagonal());
      for (double& d : *inv_diag) d = (d > 0.0) ? 1.0 / d : 1.0;
      return Preconditioner(
          [inv_diag](const std::vector<double>& r, std::vector<double>* z) {
            z->resize(r.size());
            for (size_t i = 0; i < r.size(); ++i) {
              (*z)[i] = (*inv_diag)[i] * r[i];
            }
          });
    }
    case CgPreconditioner::kIncompleteCholesky: {
      Result<IncompleteCholesky> factor = IncompleteCholesky::Factor(a);
      if (!factor.ok()) return factor.status();
      auto ic = std::make_shared<IncompleteCholesky>(
          std::move(factor).ValueOrDie());
      return Preconditioner(
          [ic](const std::vector<double>& r, std::vector<double>* z) {
            *z = ic->Apply(r);
          });
    }
  }
  return Status::Internal("unknown preconditioner kind");
}

/// Shared read-only preconditioner state for the block path. Dispatched by
/// kind instead of a std::function so the per-iteration block apply carries
/// no closure indirection.
struct BlockPreconditioner {
  CgPreconditioner kind = CgPreconditioner::kNone;
  std::vector<double> inv_diag;                    // kJacobi
  const IncompleteCholesky* borrowed = nullptr;    // kIncompleteCholesky
  std::optional<IncompleteCholesky> owned;

  const IncompleteCholesky* factor() const {
    return owned.has_value() ? &*owned : borrowed;
  }

  /// Z = M^{-1} R, column by column bit-identical to the scalar closures.
  void Apply(const DenseMatrix& r, DenseMatrix* z) const {
    const size_t n = r.rows();
    const size_t k = r.cols();
    if (z->rows() != n || z->cols() != k) *z = DenseMatrix(n, k);
    switch (kind) {
      case CgPreconditioner::kNone:
        *z = r;
        return;
      case CgPreconditioner::kJacobi:
        for (size_t i = 0; i < n; ++i) {
          const double d = inv_diag[i];
          const double* ri = r.row(i);
          double* zi = z->mutable_row(i);
          for (size_t c = 0; c < k; ++c) zi[c] = d * ri[c];
        }
        return;
      case CgPreconditioner::kIncompleteCholesky:
        factor()->ApplyBlock(r, z);
        return;
    }
  }
};

Result<BlockPreconditioner> MakeBlockPreconditioner(
    const CsrMatrix& a, CgPreconditioner kind,
    const IncompleteCholesky* cached) {
  BlockPreconditioner precond;
  precond.kind = kind;
  switch (kind) {
    case CgPreconditioner::kNone:
      return precond;
    case CgPreconditioner::kJacobi:
      // Same zero-diagonal fallback as the scalar Jacobi closure.
      precond.inv_diag = a.Diagonal();
      for (double& d : precond.inv_diag) d = (d > 0.0) ? 1.0 / d : 1.0;
      return precond;
    case CgPreconditioner::kIncompleteCholesky: {
      if (cached != nullptr) {
        precond.borrowed = cached;
        return precond;
      }
      Result<IncompleteCholesky> factor = IncompleteCholesky::Factor(a);
      if (!factor.ok()) return factor.status();
      precond.owned.emplace(std::move(factor).ValueOrDie());
      return precond;
    }
  }
  return Status::Internal("unknown preconditioner kind");
}

Result<CgSummary> SolveWithPreconditioner(const CsrMatrix& a,
                                          const std::vector<double>& b,
                                          const Preconditioner& apply,
                                          const CgOptions& options,
                                          const std::vector<double>* x0,
                                          std::vector<double>* x) {
  const size_t n = a.rows();

  const double b_norm = Norm2(b);
  CgSummary summary;
  if (b_norm == 0.0) {
    // The solution of A x = 0 is the zero vector regardless of any guess.
    x->assign(n, 0.0);
    summary.converged = true;
    return summary;
  }

  const double target = options.tolerance * b_norm;
  std::vector<double> r;
  if (x0 != nullptr) {
    *x = *x0;
    r = b;
    a.MultiplyAccumulate(-1.0, *x, &r);  // r = b - A x0
    const double r0_norm = Norm2(r);
    summary.relative_residual = r0_norm / b_norm;
    if (r0_norm <= target) {
      // The guess already meets the residual target (the warm-start payoff).
      summary.converged = true;
      return summary;
    }
  } else {
    x->assign(n, 0.0);
    r = b;  // residual at x0 = 0
  }

  std::vector<double> z(n);
  apply(r, &z);
  std::vector<double> p = z;
  std::vector<double> ap(n);
  double rz = Dot(r, z);

  const size_t max_iters =
      options.max_iterations > 0 ? options.max_iterations : 10 * n + 100;

  for (size_t iter = 0; iter < max_iters; ++iter) {
    ap.assign(n, 0.0);
    a.MultiplyAccumulate(1.0, p, &ap);
    const double pap = Dot(p, ap);
    if (pap <= 0.0) {
      // Direction of non-positive curvature: matrix is not PSD (or a
      // numerical breakdown on a semidefinite system). Surface as an error.
      return Status::NumericalError(
          "CG: non-positive curvature encountered (p^T A p = " +
          std::to_string(pap) + "); matrix not positive semidefinite?");
    }
    const double alpha = rz / pap;
    Axpy(alpha, p, x);
    Axpy(-alpha, ap, &r);

    const double r_norm = Norm2(r);
    summary.iterations = iter + 1;
    summary.relative_residual = r_norm / b_norm;
    if (r_norm <= target) {
      summary.converged = true;
      return summary;
    }

    apply(r, &z);
    const double rz_next = Dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  summary.converged = summary.relative_residual <= options.tolerance;
  return summary;
}

/// The lockstep kernel behind SolveBlock, for columns [begin, end) of B: it
/// advances those columns through one shared SpMM/preconditioner sweep per
/// iteration, with per-column scalars and an active mask that freezes
/// converged columns. Every floating-point operation touching column c
/// happens in exactly the order SolveWithPreconditioner would execute it for
/// that column alone, so the results (and iteration counts) are
/// bit-identical to serial solves. B and the initial guess X0 are read in
/// place; the solution lands in the same columns of *x, which the caller
/// zero-filled at n x k.
///
/// `order` (when non-null) redirects the cross-row reductions — ||b||,
/// ||r||, r^T z, p^T Ap — to visit rows in the given permutation while the
/// elementwise sweeps stay layout-order. A degree-relabeled system passes
/// original-id order here, which restores the exact scalar sequence of the
/// unrelabeled solve (see CgSolveContext::reduction_order).
Result<std::vector<CgSummary>> LockstepSolve(const CsrMatrix& a,
                                             const DenseMatrix& b,
                                             size_t begin, size_t end,
                                             const BlockPreconditioner& precond,
                                             const CgOptions& options,
                                             const DenseMatrix* x0,
                                             const uint32_t* order,
                                             DenseMatrix* x) {
  const size_t n = a.rows();
  const size_t k = end - begin;
  std::vector<CgSummary> summaries(k);

  // Per-column ||b||, accumulated in the same ascending-i order as Norm2
  // (under `order`, in the caller's original row order).
  std::vector<double> accum(k, 0.0);
  for (size_t j = 0; j < n; ++j) {
    const double* bi = b.row(order != nullptr ? order[j] : j) + begin;
    for (size_t c = 0; c < k; ++c) accum[c] += bi[c] * bi[c];
  }
  std::vector<double> b_norm(k, 0.0);
  std::vector<double> target(k, 0.0);
  std::vector<uint32_t> active;  // still-iterating columns, ascending
  active.reserve(k);
  for (size_t c = 0; c < k; ++c) {
    b_norm[c] = std::sqrt(accum[c]);
    if (b_norm[c] == 0.0) {
      summaries[c].converged = true;  // x column stays zero
    } else {
      target[c] = options.tolerance * b_norm[c];
      active.push_back(static_cast<uint32_t>(c));
    }
  }
  if (active.empty()) return summaries;

  DenseMatrix r(n, k);
  for (size_t i = 0; i < n; ++i) {
    const double* bi = b.row(i) + begin;
    std::copy(bi, bi + k, r.mutable_row(i));
  }
  if (x0 != nullptr) {
    // Zero-rhs columns keep the serial contract x = 0 regardless of guess.
    for (size_t i = 0; i < n; ++i) {
      const double* guess = x0->row(i) + begin;
      double* xi = x->mutable_row(i) + begin;
      for (const uint32_t c : active) xi[c] = guess[c];
    }
    a.MultiplyAccumulateBlock(-1.0, *x0, &r, begin);  // R = B - A X0
    std::fill(accum.begin(), accum.end(), 0.0);
    for (size_t j = 0; j < n; ++j) {
      const double* ri = r.row(order != nullptr ? order[j] : j);
      for (const uint32_t c : active) accum[c] += ri[c] * ri[c];
    }
    size_t w = 0;
    for (const uint32_t c : active) {
      const double r0_norm = std::sqrt(accum[c]);
      summaries[c].relative_residual = r0_norm / b_norm[c];
      if (r0_norm <= target[c]) {
        summaries[c].converged = true;  // guess already meets the target
      } else {
        active[w++] = c;
      }
    }
    active.resize(w);
    if (active.empty()) return summaries;
  }

  DenseMatrix z(n, k);
  precond.Apply(r, &z);
  DenseMatrix p = z;
  DenseMatrix ap(n, k);
  std::vector<double> rz(k, 0.0);
  for (size_t j = 0; j < n; ++j) {
    const size_t i = order != nullptr ? order[j] : j;
    const double* ri = r.row(i);
    const double* zi = z.row(i);
    for (const uint32_t c : active) rz[c] += ri[c] * zi[c];
  }
  std::vector<double> scalars(k, 0.0);

  const size_t max_iters =
      options.max_iterations > 0 ? options.max_iterations : 10 * n + 100;

  // cad-lint: hot-path begin (per-iteration loop: no buffer growth allowed)
  for (size_t iter = 0; iter < max_iters && !active.empty(); ++iter) {
    // Overwrite form: bitwise equal to zero-filling AP and accumulating,
    // without the fill pass.
    a.MultiplyOverwriteBlock(1.0, p, &ap);

    std::fill(scalars.begin(), scalars.end(), 0.0);
    for (size_t j = 0; j < n; ++j) {
      const size_t i = order != nullptr ? order[j] : j;
      const double* pi = p.row(i);
      const double* api = ap.row(i);
      for (const uint32_t c : active) scalars[c] += pi[c] * api[c];
    }
    for (const uint32_t c : active) {
      if (scalars[c] <= 0.0) {
        return Status::NumericalError(
            "CG: non-positive curvature encountered (p^T A p = " +
            std::to_string(scalars[c]) +
            "); matrix not positive semidefinite?");
      }
    }
    // scalars now holds p^T A p; turn it into alpha = rz / pap per column.
    for (const uint32_t c : active) scalars[c] = rz[c] / scalars[c];
    // X/R update fused with the ||r|| reduction in one sweep. The updates
    // are elementwise, so visiting rows in reduction order (`order[j]`)
    // instead of layout order changes nothing; the reduction itself still
    // accumulates each column in the exact ascending-original-id sequence
    // Norm2 uses, so convergence decisions stay bit-identical.
    std::fill(accum.begin(), accum.end(), 0.0);
    for (size_t j = 0; j < n; ++j) {
      const size_t i = order != nullptr ? order[j] : j;
      double* xi = x->mutable_row(i) + begin;
      double* ri = r.mutable_row(i);
      const double* pi = p.row(i);
      const double* api = ap.row(i);
      for (const uint32_t c : active) {
        const double alpha = scalars[c];
        xi[c] += alpha * pi[c];
        const double rv = ri[c] - alpha * api[c];
        ri[c] = rv;
        accum[c] += rv * rv;
      }
    }
    size_t w = 0;
    for (const uint32_t c : active) {
      const double r_norm = std::sqrt(accum[c]);
      summaries[c].iterations = iter + 1;
      summaries[c].relative_residual = r_norm / b_norm[c];
      if (r_norm <= target[c]) {
        summaries[c].converged = true;
      } else {
        active[w++] = c;
      }
    }
    active.resize(w);  // shrink only, never reallocates  // cad-lint: allow(hot-alloc)
    if (active.empty()) break;

    std::fill(scalars.begin(), scalars.end(), 0.0);
    if (precond.kind == CgPreconditioner::kIncompleteCholesky) {
      // IC(0) apply is a triangular solve with its own row ordering; keep
      // the generic two-pass form.
      precond.Apply(r, &z);
      for (size_t j = 0; j < n; ++j) {
        const size_t i = order != nullptr ? order[j] : j;
        const double* ri = r.row(i);
        const double* zi = z.row(i);
        for (const uint32_t c : active) scalars[c] += ri[c] * zi[c];
      }
    } else {
      // Jacobi/identity applies are elementwise, so the apply fuses with
      // the r^T z reduction: z rows are written with the exact expressions
      // BlockPreconditioner::Apply uses (z = r, or z = inv_diag * r), and
      // the reduction still sweeps columns in ascending-original-id order.
      // Only active columns of z are refreshed; frozen columns are never
      // read again.
      const bool jacobi = precond.kind == CgPreconditioner::kJacobi;
      for (size_t j = 0; j < n; ++j) {
        const size_t i = order != nullptr ? order[j] : j;
        const double d = jacobi ? precond.inv_diag[i] : 1.0;
        const double* ri = r.row(i);
        double* zi = z.mutable_row(i);
        for (const uint32_t c : active) {
          const double zv = d * ri[c];
          zi[c] = zv;
          scalars[c] += ri[c] * zv;
        }
      }
    }
    for (const uint32_t c : active) {
      const double rz_next = scalars[c];
      const double beta = rz_next / rz[c];
      rz[c] = rz_next;
      scalars[c] = beta;
    }
    for (size_t i = 0; i < n; ++i) {
      double* pi = p.mutable_row(i);
      const double* zi = z.row(i);
      for (const uint32_t c : active) pi[c] = zi[c] + scalars[c] * pi[c];
    }
  }
  // cad-lint: hot-path end
  // Iteration cap reached: same convergence call as the serial tail.
  for (const uint32_t c : active) {
    summaries[c].converged =
        summaries[c].relative_residual <= options.tolerance;
  }
  return summaries;
}

/// Records the outcome counters shared by Solve and SolveBlock's systems.
/// Counters only; gauges (last-write-wins) are set only from deterministic
/// single-threaded points.
void RecordSolveMetrics(const CgSummary& summary) {
  CAD_METRIC_INC("pcg.solves");
  CAD_METRIC_ADD("pcg.iterations", summary.iterations);
  if (!summary.converged) CAD_METRIC_INC("pcg.nonconverged");
}

Status ValidateSystem(const CsrMatrix& a, size_t rhs_size) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("CG: matrix must be square");
  }
  if (rhs_size != a.rows()) {
    return Status::InvalidArgument("CG: rhs size mismatch");
  }
  return Status::OK();
}

/// The body of both Solve overloads: validates, builds the preconditioner,
/// solves, and records the single-solve metrics.
Result<CgSummary> SolveOne(const CsrMatrix& a, const std::vector<double>& b,
                           const CgOptions& options,
                           const std::vector<double>* x0,
                           std::vector<double>* x) {
  CAD_TRACE_SPAN("pcg_solve");
  CAD_RETURN_NOT_OK(ValidateSystem(a, b.size()));
  if (x0 != nullptr && x0->size() != b.size()) {
    return Status::InvalidArgument("CG: initial guess size mismatch");
  }
  CAD_DCHECK_OK(a.CheckValid(CsrValidateOptions{.require_symmetric = true}));
  Preconditioner apply;
  {
    CAD_TRACE_SPAN("pcg_precond_setup");
    const Timer setup_timer;
    CAD_ASSIGN_OR_RETURN(apply,
                         MakePreconditioner(a, options.preconditioner));
    CAD_METRIC_TIME_NS("pcg.precond_setup", setup_timer.ElapsedNanos());
  }
  Result<CgSummary> summary =
      SolveWithPreconditioner(a, b, apply, options, x0, x);
  if (summary.ok()) {
    RecordSolveMetrics(*summary);
    CAD_METRIC_SET("pcg.last_relative_residual", summary->relative_residual);
  }
  return summary;
}

Status ValidateContext(const CgSolveContext& context, size_t rows,
                       size_t cols) {
  if (context.initial_guess != nullptr &&
      (context.initial_guess->rows() != rows ||
       context.initial_guess->cols() != cols)) {
    return Status::InvalidArgument(
        "CG: initial-guess block must be " + std::to_string(rows) + "x" +
        std::to_string(cols) + ", got " +
        std::to_string(context.initial_guess->rows()) + "x" +
        std::to_string(context.initial_guess->cols()));
  }
  if (context.cached_factor != nullptr &&
      context.cached_factor->dimension() != rows) {
    return Status::InvalidArgument("CG: cached IC(0) factor dimension " +
                                   std::to_string(
                                       context.cached_factor->dimension()) +
                                   " does not match system size " +
                                   std::to_string(rows));
  }
  return Status::OK();
}

}  // namespace

CgBatchStats SummarizeCgBatch(const std::vector<CgSummary>& summaries) {
  CgBatchStats stats;
  stats.num_systems = summaries.size();
  for (size_t i = 0; i < summaries.size(); ++i) {
    const CgSummary& summary = summaries[i];
    if (summary.converged) ++stats.num_converged;
    if (i == 0 || summary.iterations < stats.min_iterations) {
      stats.min_iterations = summary.iterations;
    }
    stats.max_iterations = std::max(stats.max_iterations, summary.iterations);
    stats.total_iterations += summary.iterations;
    stats.max_relative_residual =
        std::max(stats.max_relative_residual, summary.relative_residual);
  }
  return stats;
}

const char* CgPreconditionerToString(CgPreconditioner preconditioner) {
  switch (preconditioner) {
    case CgPreconditioner::kNone:
      return "none";
    case CgPreconditioner::kJacobi:
      return "jacobi";
    case CgPreconditioner::kIncompleteCholesky:
      return "ic0";
  }
  return "unknown";
}

Result<CgSummary> ConjugateGradientSolver::Solve(const CsrMatrix& a,
                                                 const std::vector<double>& b,
                                                 std::vector<double>* x) const {
  return SolveOne(a, b, options_, nullptr, x);
}

Result<CgSummary> ConjugateGradientSolver::Solve(const CsrMatrix& a,
                                                 const std::vector<double>& b,
                                                 const std::vector<double>& x0,
                                                 std::vector<double>* x) const {
  return SolveOne(a, b, options_, &x0, x);
}

Result<std::vector<CgSummary>> ConjugateGradientSolver::SolveBlock(
    const CsrMatrix& a, const DenseMatrix& b, DenseMatrix* x,
    const CgSolveContext& context) const {
  CAD_TRACE_SPAN("pcg_solve_block");
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("CG: matrix must be square");
  }
  if (b.rows() != a.rows()) {
    return Status::InvalidArgument("CG: rhs block row count mismatch");
  }
  CAD_RETURN_NOT_OK(ValidateContext(context, b.rows(), b.cols()));
  if (context.reduction_order != nullptr &&
      context.reduction_order->size() != a.rows()) {
    return Status::InvalidArgument(
        "CG: reduction_order size " +
        std::to_string(context.reduction_order->size()) +
        " does not match system size " + std::to_string(a.rows()));
  }
  if (!a.sorted_rows() &&
      options_.preconditioner == CgPreconditioner::kIncompleteCholesky) {
    // IC(0) elimination depends on the stored entry order, so a factor of
    // the relabeled matrix would not reproduce the unrelabeled
    // preconditioner. Order-free preconditioners (none/Jacobi) only.
    return Status::InvalidArgument(
        "CG: kIncompleteCholesky is incompatible with unsorted-row "
        "(relabeled) matrices; use kJacobi or kNone");
  }
  CAD_DCHECK_OK(a.CheckValid(CsrValidateOptions{.require_symmetric = true}));

  BlockPreconditioner precond;
  {
    CAD_TRACE_SPAN("pcg_precond_setup");
    const Timer setup_timer;
    CAD_ASSIGN_OR_RETURN(precond,
                         MakeBlockPreconditioner(a, options_.preconditioner,
                                                 context.cached_factor));
    CAD_METRIC_TIME_NS("pcg.precond_setup", setup_timer.ElapsedNanos());
  }

  const size_t n = a.rows();
  const size_t k = b.cols();
  *x = DenseMatrix(n, k);
  std::vector<CgSummary> summaries(k);
  // Column chunking: each chunk runs the lockstep kernel over a contiguous
  // column range. Chunking only regroups which columns share a sweep; it
  // never changes any column's arithmetic. The chunk count depends on k
  // alone, so the work counters the chunks feed (parallel.tasks among them)
  // are the same at every thread count.
  const size_t num_chunks = (k + kBlockChunkWidth - 1) / kBlockChunkWidth;
  const uint32_t* order = context.reduction_order != nullptr
                              ? context.reduction_order->data()
                              : nullptr;
  std::vector<Status> statuses(num_chunks);
  ParallelFor(num_chunks, options_.num_threads, [&](size_t chunk) {
    CAD_TRACE_SPAN("pcg_block_chunk");
    const size_t begin = chunk * k / num_chunks;
    const size_t end = (chunk + 1) * k / num_chunks;
    Result<std::vector<CgSummary>> chunk_summaries =
        LockstepSolve(a, b, begin, end, precond, options_,
                      context.initial_guess, order, x);
    if (!chunk_summaries.ok()) {
      statuses[chunk] = chunk_summaries.status();
      return;
    }
    std::copy(chunk_summaries->begin(), chunk_summaries->end(),
              summaries.begin() + static_cast<std::ptrdiff_t>(begin));
  });
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  // Per-system and batch metrics are recorded post-join, in column order, so
  // the export is the same at any thread count.
  for (const CgSummary& summary : summaries) {
    RecordSolveMetrics(summary);
    CAD_METRIC_OBSERVE("pcg.iterations_per_rhs", summary.iterations);
  }
  CAD_METRIC_INC("pcg.batches");
  CAD_METRIC_SET("pcg.last_batch_max_relative_residual",
                 SummarizeCgBatch(summaries).max_relative_residual);
  return summaries;
}

}  // namespace cad
