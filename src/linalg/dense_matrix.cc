#include "linalg/dense_matrix.h"

#include <cmath>
#include <sstream>

namespace cad {

DenseMatrix::DenseMatrix(size_t rows, size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  CAD_CHECK_EQ(data_.size(), rows_ * cols_);
}

DenseMatrix DenseMatrix::Identity(size_t n) {
  DenseMatrix eye(n, n);
  for (size_t i = 0; i < n; ++i) eye(i, i) = 1.0;
  return eye;
}

std::vector<double> DenseMatrix::Multiply(const std::vector<double>& x) const {
  CAD_CHECK_EQ(x.size(), cols_);
  std::vector<double> y(rows_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    const double* a = row(i);
    double sum = 0.0;
    for (size_t j = 0; j < cols_; ++j) sum += a[j] * x[j];
    y[i] = sum;
  }
  return y;
}

DenseMatrix DenseMatrix::Multiply(const DenseMatrix& other) const {
  CAD_CHECK_EQ(cols_, other.rows());
  DenseMatrix out(rows_, other.cols());
  // i-k-j loop order for cache-friendly access of both operands.
  for (size_t i = 0; i < rows_; ++i) {
    const double* a = row(i);
    double* o = out.mutable_row(i);
    for (size_t k = 0; k < cols_; ++k) {
      const double aik = a[k];
      if (aik == 0.0) continue;
      const double* b = other.row(k);
      for (size_t j = 0; j < other.cols(); ++j) o[j] += aik * b[j];
    }
  }
  return out;
}

DenseMatrix DenseMatrix::Transpose() const {
  DenseMatrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    const double* a = row(i);
    for (size_t j = 0; j < cols_; ++j) out(j, i) = a[j];
  }
  return out;
}

DenseMatrix DenseMatrix::Add(const DenseMatrix& other) const {
  CAD_CHECK(rows_ == other.rows() && cols_ == other.cols());
  DenseMatrix out(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = data_[i] + other.data_[i];
  }
  return out;
}

DenseMatrix DenseMatrix::Subtract(const DenseMatrix& other) const {
  CAD_CHECK(rows_ == other.rows() && cols_ == other.cols());
  DenseMatrix out(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = data_[i] - other.data_[i];
  }
  return out;
}

DenseMatrix DenseMatrix::Scale(double s) const {
  DenseMatrix out(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] = s * data_[i];
  return out;
}

double DenseMatrix::MaxAbsDifference(const DenseMatrix& other) const {
  CAD_CHECK(rows_ == other.rows() && cols_ == other.cols());
  double max_diff = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(data_[i] - other.data_[i]));
  }
  return max_diff;
}

bool DenseMatrix::IsSymmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = i + 1; j < cols_; ++j) {
      if (std::fabs((*this)(i, j) - (*this)(j, i)) > tol) return false;
    }
  }
  return true;
}

double DenseMatrix::FrobeniusNorm() const {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return std::sqrt(sum);
}

Status DenseMatrix::CheckFinite() const {
  if (data_.size() != rows_ * cols_) {
    return Status::Internal("DenseMatrix: data size " +
                            std::to_string(data_.size()) + " != " +
                            std::to_string(rows_) + "x" +
                            std::to_string(cols_));
  }
  for (size_t i = 0; i < rows_; ++i) {
    const double* a = row(i);
    for (size_t j = 0; j < cols_; ++j) {
      if (!std::isfinite(a[j])) {
        return Status::NumericalError(
            "DenseMatrix: non-finite entry at (" + std::to_string(i) + ", " +
            std::to_string(j) + ")");
      }
    }
  }
  return Status::OK();
}

std::string DenseMatrix::ToString(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  for (size_t i = 0; i < rows_; ++i) {
    const double* a = row(i);
    for (size_t j = 0; j < cols_; ++j) {
      if (j != 0) os << " ";
      os << a[j];
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace cad
