#include "harness.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/deadline.h"
#include "common/string_util.h"
#include "common/version.h"
#include "linalg/simd.h"
#include "obs/json.h"
#include "serve/client.h"

extern char** environ;

namespace perfbench {

using mivid::Result;
using mivid::Status;
using mivid::StrFormat;

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  // Linear interpolation between the order statistics around q(n-1): the
  // few per-loop samples of paper_loop give a median that is their mean
  // rather than one of them.
  const double pos = std::clamp(q, 0.0, 1.0) * (sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - lo) * (sorted[hi] - sorted[lo]);
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

void OpCounts::Record(const std::string& command, bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& [attempted, failed] = counts_[command];
  ++attempted;
  if (!ok) ++failed;
}

int64_t OpCounts::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const auto& [cmd, c] : counts_) n += c.first;
  return n;
}

int64_t OpCounts::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const auto& [cmd, c] : counts_) n += c.second;
  return n;
}

std::string OpCounts::Json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  for (const auto& [cmd, c] : counts_) {
    if (out.size() > 1) out += ',';
    out += StrFormat("\"%s\":{\"attempted\":%lld,\"succeeded\":%lld,"
                     "\"failed\":%lld}",
                     mivid::JsonEscape(cmd).c_str(),
                     static_cast<long long>(c.first),
                     static_cast<long long>(c.first - c.second),
                     static_cast<long long>(c.second));
  }
  return out + "}";
}

void Report::InfoSamples(const std::string& name, const Samples& s,
                         double tail_q) {
  Info(name, StrFormat("{\"p50\":%.6g,\"p%g\":%.6g,\"n\":%zu}", s.Median(),
                       100.0 * tail_q, s.Quantile(tail_q), s.size()));
}

void Report::CheckFailed(const std::string& what) {
  ops.Record("check", false);
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
  check_failures.push_back(what);
}

void Report::NoteFailure(const std::string& command, const std::string& what) {
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  const std::string key = "first_failure." + command;
  if (info.count(key) == 0) {
    info[key] = StrFormat("\"%s\"", mivid::JsonEscape(what).c_str());
  }
}

void TimeSetup(int reps, const std::function<void()>& setup,
               Samples* seconds) {
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup();
    seconds->Add(SecondsSince(t0));
  }
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB -> MB
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

TempDir::TempDir(std::string path) : path_(std::move(path)) {
  RemoveTree(path_);
  std::filesystem::create_directories(path_);
}

TempDir::~TempDir() { RemoveTree(path_); }

namespace {

/// Process group id of `pid` from /proc/<pid>/stat (-1 when gone).
pid_t ProcessGroupOf(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream rest(stat.substr(close + 1));
  std::string state;
  long ppid = 0, pgrp = -1;
  rest >> state >> ppid >> pgrp;
  return static_cast<pid_t>(pgrp);
}

/// VmHWM of `pid` in MB (0 when unreadable).
double PeakRssOfPid(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::vector<pid_t> GroupMembers(pid_t pgid) {
  std::vector<pid_t> members;
  DIR* proc = opendir("/proc");
  if (proc == nullptr) return members;
  while (dirent* entry = readdir(proc)) {
    char* end = nullptr;
    const long pid = std::strtol(entry->d_name, &end, 10);
    if (end == entry->d_name || *end != '\0') continue;
    if (ProcessGroupOf(static_cast<pid_t>(pid)) == pgid) {
      members.push_back(static_cast<pid_t>(pid));
    }
  }
  closedir(proc);
  return members;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

}  // namespace

Result<std::unique_ptr<Daemon>> Daemon::Start(std::vector<std::string> argv,
                                              std::vector<std::string> env,
                                              const std::string& log_path) {
  // Everything the child touches is prepared before fork: perfbench
  // has threads, so the child may only make async-signal-safe calls.
  std::vector<char*> child_argv;
  for (std::string& a : argv) child_argv.push_back(a.data());
  child_argv.push_back(nullptr);
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    const std::string key = entry.substr(0, entry.find('='));
    bool overridden = false;
    for (const std::string& extra : env) {
      overridden |= extra.rfind(key + "=", 0) == 0;
    }
    if (!overridden) env_strings.push_back(entry);
  }
  for (std::string& extra : env) env_strings.push_back(extra);
  std::vector<char*> child_env;
  for (std::string& e : env_strings) child_env.push_back(e.data());
  child_env.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) return Status::IOError("fork failed");
  if (pid == 0) {
    ::setpgid(0, 0);
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                          0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      if (fd > STDERR_FILENO) ::close(fd);
    }
    ::execve(child_argv[0], child_argv.data(), child_env.data());
    ::_exit(127);
  }
  ::setpgid(pid, pid);  // also set here: no window where it is unset

  std::unique_ptr<Daemon> daemon(new Daemon());
  daemon->pid_ = pid;
  const Clock::time_point t0 = Clock::now();
  while (SecondsSince(t0) < 60.0) {
    const std::string log = ReadFile(log_path);
    const size_t at = log.find("tcp_port=");
    if (at != std::string::npos) {
      const size_t eol = log.find('\n', at);
      if (eol != std::string::npos) {
        daemon->endpoint_ =
            "127.0.0.1:" + log.substr(at + 9, eol - (at + 9));
        return daemon;
      }
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      daemon->pid_ = -1;
      return Status::Internal("daemon exited during start-up: " + log);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return Status::DeadlineExceeded("daemon did not report its port: " +
                                  ReadFile(log_path));
}

Daemon::~Daemon() { Shutdown(); }

double Daemon::PeakRssMb() const {
  if (pid_ < 0) return 0.0;
  double total = 0.0;
  for (pid_t member : GroupMembers(pid_)) total += PeakRssOfPid(member);
  return total;
}

bool Daemon::Shutdown(int timeout_ms) {
  if (pid_ < 0) return true;
  bool clean = false;
  if (!endpoint_.empty()) {
    Result<mivid::ServeClient> client = mivid::ServeClient::Connect(endpoint_);
    if (client.ok()) {
      (void)client.value().Call("{\"cmd\":\"shutdown\"}",
                                mivid::Deadline::AfterMs(timeout_ms));
    }
  }
  const Clock::time_point t0 = Clock::now();
  int status = 0;
  while (MsSince(t0) < timeout_ms) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Whatever is left of the group (a hung daemon, or workers orphaned by
  // a coordinator that died) is killed; orphans are reparented to this
  // subreaper process, so waitpid on the group reaps all of them.
  ::killpg(pid_, SIGKILL);
  while (::waitpid(-pid_, &status, 0) > 0) {
  }
  pid_ = -1;
  return clean;
}

void ReapChildren() {
  int status = 0;
  while (::waitpid(-1, &status, WNOHANG) > 0) {
  }
}

double LoadAverage1() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

std::string MachineStampJson(double load_start, double load_end,
                             int threads) {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  return StrFormat(
      "{\"nproc\":%ld,\"load_start\":%.2f,\"load_end\":%.2f,"
      "\"optimized\":%s,\"simd_tier\":\"%s\",\"threads\":%d,"
      "\"mivid_version\":\"%s\"}",
      sysconf(_SC_NPROCESSORS_ONLN), load_start, load_end,
      optimized ? "true" : "false",
      mivid::SimdTierName(mivid::ActiveSimdTier()), threads,
      mivid::kMividVersion);
}

}  // namespace perfbench
