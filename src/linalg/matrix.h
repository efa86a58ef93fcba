// Dense row-major matrix and vector types used throughout mivid.
//
// Kept deliberately small: the largest systems solved in this codebase are
// the Vandermonde normal equations of the trajectory fitter (k+1 unknowns,
// k <= ~8) and PCA covariance matrices (feature dimension <= ~32), so an
// O(n^3) dense implementation is both sufficient and the easiest to verify.

#ifndef MIVID_LINALG_MATRIX_H_
#define MIVID_LINALG_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

namespace mivid {

/// A dynamically sized column vector of doubles.
using Vec = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Creates a matrix from nested initializer data (rows of equal width).
  static Matrix FromRows(const std::vector<Vec>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& At(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double At(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double& operator()(size_t r, size_t c) { return At(r, c); }
  double operator()(size_t r, size_t c) const { return At(r, c); }

  /// Returns row `r` as a vector copy.
  Vec Row(size_t r) const;

  /// Sets row `r` from `v` (sizes must match).
  void SetRow(size_t r, const Vec& v);

  Matrix Transpose() const;

  /// Matrix product; requires cols() == other.rows().
  Matrix Multiply(const Matrix& other) const;

  /// Matrix-vector product; requires cols() == v.size().
  Vec Multiply(const Vec& v) const;

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// Max |a_ij - b_ij|; matrices must have equal shape.
  double MaxAbsDiff(const Matrix& other) const;

  /// Pretty printer for diagnostics.
  std::string ToString(int precision = 4) const;

  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// v . w (sizes must match).
double Dot(const Vec& a, const Vec& b);

/// Euclidean norm of v.
double Norm(const Vec& v);

/// Squared Euclidean distance |a - b|^2.
double SquaredDistance(const Vec& a, const Vec& b);

/// a + b elementwise.
Vec Add(const Vec& a, const Vec& b);

/// s * v.
Vec ScaleVec(const Vec& v, double s);

}  // namespace mivid

#endif  // MIVID_LINALG_MATRIX_H_
