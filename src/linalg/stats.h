// Descriptive statistics used by the weighted-RF baseline and evaluation.

#ifndef MIVID_LINALG_STATS_H_
#define MIVID_LINALG_STATS_H_

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace mivid {

/// Arithmetic mean; 0 for empty input.
double Mean(const Vec& v);

/// Population variance (divides by n); 0 for n < 1.
double Variance(const Vec& v);

/// Minimum / maximum; 0 for empty input.
double Min(const Vec& v);
double Max(const Vec& v);

/// Per-column mean of a set of equal-length rows.
Vec ColumnMeans(const std::vector<Vec>& rows);

/// Per-column population standard deviation of equal-length rows.
Vec ColumnStdDevs(const std::vector<Vec>& rows);

/// Streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  void Add(double x);
  size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Population variance.
  double variance() const { return n_ > 0 ? m2_ / static_cast<double>(n_) : 0; }
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace mivid

#endif  // MIVID_LINALG_STATS_H_
