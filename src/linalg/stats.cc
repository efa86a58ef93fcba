#include "linalg/stats.h"

#include <algorithm>
#include <cmath>

namespace mivid {

double Mean(const Vec& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Variance(const Vec& v) {
  if (v.empty()) return 0.0;
  const double m = Mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size());
}

double Min(const Vec& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double Max(const Vec& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

Vec ColumnMeans(const std::vector<Vec>& rows) {
  if (rows.empty()) return {};
  Vec m(rows[0].size(), 0.0);
  for (const auto& r : rows) {
    for (size_t c = 0; c < m.size(); ++c) m[c] += r[c];
  }
  for (double& x : m) x /= static_cast<double>(rows.size());
  return m;
}

Vec ColumnStdDevs(const std::vector<Vec>& rows) {
  if (rows.empty()) return {};
  const Vec m = ColumnMeans(rows);
  Vec s(m.size(), 0.0);
  for (const auto& r : rows) {
    for (size_t c = 0; c < m.size(); ++c) {
      s[c] += (r[c] - m[c]) * (r[c] - m[c]);
    }
  }
  for (double& x : s) x = std::sqrt(x / static_cast<double>(rows.size()));
  return s;
}

void RunningStats::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace mivid
