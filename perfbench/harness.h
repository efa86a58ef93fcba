// Shared plumbing of the mivid benchmark (perfbench): run arguments, timing
// samples, per-command operation counts, the run report, and control of
// the daemons under test (spawn, readiness, peak RSS, shutdown).

#ifndef MIVID_PERFBENCH_HARNESS_H_
#define MIVID_PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;  ///< measured window; 0 = smoke (minimum work)
  bool trace = false;     ///< per-layer run instead of end-to-end
  std::string cli;        ///< mivid_cli binary (the daemons under test)
  std::string work_dir;   ///< scratch root, removed when the run ends
  int threads = 1;        ///< fixed worker/client count for every process
  bool smoke() const { return seconds <= 0.0; }
};

/// A timing sample (any unit). Quantiles interpolate linearly.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Sum() const;

 private:
  std::vector<double> values_;
};

/// Operations attempted and failed, per command. Thread-safe.
class OpCounts {
 public:
  void Record(const std::string& command, bool ok);
  int64_t attempted() const;
  int64_t failed() const;
  /// {"open":{"attempted":N,"failed":M},...}
  std::string Json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::pair<int64_t, int64_t>> counts_;
};

/// Everything one run reports. `metrics` go on the result line with
/// every digit; `info` (the workload's own metric names, sample counts,
/// first failures) goes on the REPORT line.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;   ///< printed on the result line
  std::map<std::string, std::string> info; ///< name -> JSON value
  OpCounts ops;
  std::vector<std::string> check_failures;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Info(const std::string& name, const std::string& json) {
    info[name] = json;
  }
  /// Records a timing sample under `name` in the report: median, the
  /// tail percentile and the sample count.
  void InfoSamples(const std::string& name, const Samples& s, double tail_q);
  /// Output checks count as operations; a failed one as a failure.
  void CheckFailed(const std::string& what);
  /// Keeps the first failure message of each command for the report.
  void NoteFailure(const std::string& command, const std::string& what);
  void Check(bool ok, const std::string& what) {
    if (ok) {
      ops.Record("check", true);
    } else {
      CheckFailed(what);
    }
  }
};

/// Runs `setup` `reps` times, adding each run's seconds to `seconds`.
/// Workloads call it more than once, spread over the run: on a shared
/// virtual machine a CPU ran the same set-up at 1.1 or 1.85 ms for
/// seconds at a time, and set-ups timed in one burst took that speed.
void TimeSetup(int reps, const std::function<void()>& setup,
               Samples* seconds);

/// Peak resident set size of this process, MB.
double SelfPeakRssMb();

/// Removes a directory tree (best effort; used by RAII guards).
void RemoveTree(const std::string& path);

/// Owns a scratch directory and removes it on destruction.
class TempDir {
 public:
  explicit TempDir(std::string path);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// One daemon process (and, for the coordinator, the workers it forks),
/// run in its own process group. Shutdown sends {"cmd":"shutdown"},
/// waits, and SIGKILLs the whole group after the timeout; the destructor
/// does the same, so a failed check never leaks a daemon.
class Daemon {
 public:
  /// Starts `argv` (argv[0] is the binary) with extra environment
  /// entries, stdout/stderr appended to `log_path`, and waits for the
  /// "tcp_port=N" line the daemon prints once it listens.
  static mivid::Result<std::unique_ptr<Daemon>> Start(
      std::vector<std::string> argv, std::vector<std::string> env,
      const std::string& log_path);

  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& endpoint() const { return endpoint_; }

  /// Sum of peak RSS (VmHWM) over the live processes of the group, MB.
  double PeakRssMb() const;

  /// Stops the daemon; true when it exited on the shutdown command
  /// within the timeout (false: it had to be killed).
  bool Shutdown(int timeout_ms = 5000);

 private:
  Daemon() = default;
  pid_t pid_ = -1;
  std::string endpoint_;
};

/// Reaps every exited child (and orphaned grandchild, since perfbench
/// is a child subreaper) without blocking.
void ReapChildren();

/// Machine and build stamp recorded with every result.
std::string MachineStampJson(double load_start, double load_end,
                             int threads);

/// One-minute load average.
double LoadAverage1();

}  // namespace perfbench

#endif  // MIVID_PERFBENCH_HARNESS_H_
