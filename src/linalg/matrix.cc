#include "linalg/matrix.h"

#include <cmath>

#include "common/string_util.h"

namespace mivid {

Matrix Matrix::FromRows(const std::vector<Vec>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    assert(rows[r].size() == m.cols_);
    for (size_t c = 0; c < m.cols_; ++c) m.At(r, c) = rows[r][c];
  }
  return m;
}

Vec Matrix::Row(size_t r) const {
  Vec v(cols_);
  for (size_t c = 0; c < cols_; ++c) v[c] = At(r, c);
  return v;
}

void Matrix::SetRow(size_t r, const Vec& v) {
  assert(v.size() == cols_);
  for (size_t c = 0; c < cols_; ++c) At(r, c) = v[c];
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) t.At(c, r) = At(r, c);
  }
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = 0; k < cols_; ++k) {
      const double a = At(i, k);
      if (a == 0.0) continue;
      for (size_t j = 0; j < other.cols_; ++j) {
        out.At(i, j) += a * other.At(k, j);
      }
    }
  }
  return out;
}

Vec Matrix::Multiply(const Vec& v) const {
  assert(cols_ == v.size());
  Vec out(rows_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (size_t j = 0; j < cols_; ++j) acc += At(i, j) * v[j];
    out[i] = acc;
  }
  return out;
}

double Matrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  double m = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::fabs(data_[i] - other.data_[i]));
  }
  return m;
}

std::string Matrix::ToString(int precision) const {
  std::string out;
  for (size_t r = 0; r < rows_; ++r) {
    out += "[";
    for (size_t c = 0; c < cols_; ++c) {
      if (c) out += ", ";
      out += StrFormat("%.*f", precision, At(r, c));
    }
    out += "]\n";
  }
  return out;
}

double Dot(const Vec& a, const Vec& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double Norm(const Vec& v) { return std::sqrt(Dot(v, v)); }

double SquaredDistance(const Vec& a, const Vec& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

Vec Add(const Vec& a, const Vec& b) {
  assert(a.size() == b.size());
  Vec out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vec ScaleVec(const Vec& v, double s) {
  Vec out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = v[i] * s;
  return out;
}

}  // namespace mivid
