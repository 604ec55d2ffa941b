#ifndef CAD_LINALG_DENSE_MATRIX_H_
#define CAD_LINALG_DENSE_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace cad {

/// \brief Row-major dense matrix of doubles.
///
/// This is the workhorse for the *exact* commute-time path (Laplacian
/// pseudoinverse, Eq. 3 of the paper), which is used on small graphs such as
/// the 17-node toy example and the 151-node Enron-style network. Large
/// graphs go through the sparse/approximate path instead.
class DenseMatrix {
 public:
  /// Creates an empty 0x0 matrix.
  DenseMatrix() = default;

  /// Creates a rows x cols matrix initialized to zero.
  DenseMatrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Creates a matrix from row-major data. `data.size()` must equal
  /// rows * cols.
  DenseMatrix(size_t rows, size_t cols, std::vector<double> data);

  DenseMatrix(const DenseMatrix&) = default;
  DenseMatrix& operator=(const DenseMatrix&) = default;
  DenseMatrix(DenseMatrix&&) = default;
  DenseMatrix& operator=(DenseMatrix&&) = default;

  /// The n x n identity.
  static DenseMatrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t i, size_t j) {
    CAD_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  double operator()(size_t i, size_t j) const {
    CAD_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  const std::vector<double>& data() const { return data_; }

  /// Pointer to the start of row `i`.
  const double* row(size_t i) const {
    CAD_DCHECK(i < rows_);
    return data_.data() + i * cols_;
  }
  double* mutable_row(size_t i) {
    CAD_DCHECK(i < rows_);
    return data_.data() + i * cols_;
  }

  /// Matrix-vector product y = A x. Requires x.size() == cols().
  std::vector<double> Multiply(const std::vector<double>& x) const;

  /// Matrix-matrix product A * other. Requires cols() == other.rows().
  DenseMatrix Multiply(const DenseMatrix& other) const;

  /// Returns A^T.
  DenseMatrix Transpose() const;

  /// Elementwise sum; shapes must match.
  DenseMatrix Add(const DenseMatrix& other) const;

  /// Elementwise difference; shapes must match.
  DenseMatrix Subtract(const DenseMatrix& other) const;

  /// Returns s * A.
  DenseMatrix Scale(double s) const;

  /// max_{i,j} |A(i,j) - B(i,j)|; shapes must match.
  double MaxAbsDifference(const DenseMatrix& other) const;

  /// True if the matrix is square and |A(i,j)-A(j,i)| <= tol for all i,j.
  bool IsSymmetric(double tol = 1e-12) const;

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// \brief Structural validation for CAD_DCHECK_OK at dense-solver entry
  /// points: data size matches rows*cols and every entry is finite. O(n*m).
  [[nodiscard]] Status CheckFinite() const;

  /// Debug rendering, one row per line.
  std::string ToString(int precision = 4) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace cad

#endif  // CAD_LINALG_DENSE_MATRIX_H_
