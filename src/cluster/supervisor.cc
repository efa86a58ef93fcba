#include "cluster/supervisor.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/logging.h"
#include "obs/metrics.h"

namespace mivid {

namespace {

/// Scans a worker's log for the "tcp_port=N" boot line and returns N,
/// or -1 when the line has not appeared yet.
int ScanPortLine(const std::string& log_path) {
  std::ifstream in(log_path);
  if (!in.is_open()) return -1;
  std::string line;
  while (std::getline(in, line)) {
    const size_t at = line.find("tcp_port=");
    if (at == std::string::npos) continue;
    const char* digits = line.c_str() + at + std::strlen("tcp_port=");
    char* end = nullptr;
    const long port = std::strtol(digits, &end, 10);
    if (end != digits && port >= 0 && port <= 65535) {
      return static_cast<int>(port);
    }
  }
  return -1;
}

std::string LogTail(const std::string& log_path, size_t max_bytes = 512) {
  std::ifstream in(log_path, std::ios::binary);
  if (!in.is_open()) return "";
  in.seekg(0, std::ios::end);
  const auto size = static_cast<size_t>(in.tellg());
  const size_t want = size < max_bytes ? size : max_bytes;
  in.seekg(static_cast<std::streamoff>(size - want));
  std::string tail(want, '\0');
  in.read(tail.data(), static_cast<std::streamsize>(want));
  return tail;
}

}  // namespace

WorkerSupervisor::WorkerSupervisor(SupervisorOptions options)
    : options_(std::move(options)) {}

WorkerSupervisor::~WorkerSupervisor() { StopAll(); }

Status WorkerSupervisor::SpawnAll() {
  if (options_.count <= 0) {
    return Status::InvalidArgument("spawn count must be positive");
  }
  if (options_.cli_path.empty() || options_.db_path.empty()) {
    return Status::InvalidArgument(
        "supervisor needs the cli binary and a database path");
  }
  if (!options_.log_dir.empty()) {
    ::mkdir(options_.log_dir.c_str(), 0755);  // EEXIST is fine
  }
  children_.clear();
  children_.reserve(static_cast<size_t>(options_.count));
  for (int i = 0; i < options_.count; ++i) {
    Child child;
    child.worker_id = "w" + std::to_string(i);
    const std::string dir =
        options_.log_dir.empty() ? "." : options_.log_dir;
    child.log_path = dir + "/" + child.worker_id + ".log";
    // First spawn binds port 0; the kernel's pick is learned from the
    // boot line and pinned for every restart.
    child.port = 0;
    children_.push_back(std::move(child));
  }
  for (Child& child : children_) {
    Status spawned = Spawn(child);
    if (spawned.ok()) {
      Result<int> port = WaitForPortLine(child);
      if (port.ok()) {
        child.port = port.value();
        MIVID_LOG(Info) << "supervisor: " << child.worker_id << " up on "
                        << options_.tcp_host << ":" << child.port
                        << " (pid " << child.pid << ")";
        continue;
      }
      spawned = port.status();
    }
    StopAll();
    return Status(spawned.code(), "spawn of " + child.worker_id +
                                      " failed: " + spawned.message());
  }
  return Status::OK();
}

std::vector<std::string> WorkerSupervisor::endpoints() const {
  std::vector<std::string> out;
  out.reserve(children_.size());
  for (const Child& child : children_) {
    out.push_back(options_.tcp_host + ":" + std::to_string(child.port));
  }
  return out;
}

Status WorkerSupervisor::Spawn(Child& child) {
  const std::string port_flag =
      "--tcp-port=" + std::to_string(child.port);
  const std::string id_flag = "--worker-id=" + child.worker_id;
  std::vector<std::string> args = {options_.cli_path, "serve",
                                   options_.db_path, "none", port_flag,
                                   id_flag};
  for (const std::string& extra : options_.extra_args) {
    args.push_back(extra);
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    return Status::IOError(std::string("fork failed: ") +
                           std::strerror(errno));
  }
  if (pid == 0) {
    // Child: stdout/stderr -> the worker's log (the port line is read
    // from there), then exec. Only async-signal-safe calls from here on.
    // SIGTERM the worker when the coordinator dies, even by SIGKILL; the
    // re-check covers a coordinator that died before prctl ran.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(1);
    const int log_fd = ::open(child.log_path.c_str(),
                              O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      if (log_fd > STDERR_FILENO) ::close(log_fd);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);  // exec failed; the sweep sees a rapid death
  }
  child.pid = pid;
  child.started = std::chrono::steady_clock::now();
  child.restart_pending = false;
  return Status::OK();
}

Result<int> WorkerSupervisor::WaitForPortLine(const Child& child) const {
  const auto give_up_at =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.spawn_wait_ms);
  for (;;) {
    const int port = ScanPortLine(child.log_path);
    if (port >= 0) return port;
    int wstatus = 0;
    if (::waitpid(child.pid, &wstatus, WNOHANG) == child.pid) {
      return Status::Internal(child.worker_id +
                              " exited before printing its port; log "
                              "tail: " +
                              LogTail(child.log_path));
    }
    if (std::chrono::steady_clock::now() >= give_up_at) {
      return Status::DeadlineExceeded(
          child.worker_id + " did not print tcp_port within " +
          std::to_string(options_.spawn_wait_ms) + "ms");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

void WorkerSupervisor::Sweep() {
  const auto now = std::chrono::steady_clock::now();
  for (Child& child : children_) {
    if (child.gave_up) continue;
    if (child.pid > 0 && !child.restart_pending) {
      int wstatus = 0;
      const pid_t reaped = ::waitpid(child.pid, &wstatus, WNOHANG);
      if (reaped != child.pid) continue;  // still running (or ECHILD)
      const int64_t uptime_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              now - child.started)
              .count();
      // A worker that ran long enough earns a clean slate: only
      // back-to-back rapid deaths count toward the give-up limit.
      if (uptime_ms >= options_.stable_ms) child.strikes = 0;
      ++child.strikes;
      child.pid = -1;
      if (child.strikes > options_.max_restarts) {
        child.gave_up = true;
        MIVID_LOG(Warn) << "supervisor: " << child.worker_id
                        << " died " << child.strikes
                        << " times in a row; giving up on it";
        continue;
      }
      int64_t backoff = options_.backoff_base_ms;
      for (int i = 1; i < child.strikes &&
                      backoff < options_.backoff_max_ms;
           ++i) {
        backoff *= 2;
      }
      if (backoff > options_.backoff_max_ms) {
        backoff = options_.backoff_max_ms;
      }
      child.restart_pending = true;
      child.restart_due = now + std::chrono::milliseconds(backoff);
      MIVID_LOG(Warn) << "supervisor: " << child.worker_id << " (pid "
                      << reaped << ") died after " << uptime_ms
                      << "ms; restart " << child.strikes << " in "
                      << backoff << "ms";
    }
    if (child.restart_pending && now >= child.restart_due) {
      Status spawned = Spawn(child);
      if (!spawned.ok()) {
        // Try again next sweep; the strike counter already bounds this.
        MIVID_LOG(Warn) << "supervisor: respawn of " << child.worker_id
                        << " failed: " << spawned.ToString();
        continue;
      }
      ++restarts_;
      MIVID_METRIC_COUNT("cluster/worker_restarts", 1);
      MIVID_LOG(Info) << "supervisor: restarted " << child.worker_id
                      << " on port " << child.port << " (pid "
                      << child.pid << ")";
    }
  }
}

void WorkerSupervisor::StopAll() {
  bool any = false;
  for (Child& child : children_) {
    if (child.pid > 0) {
      ::kill(child.pid, SIGTERM);
      any = true;
    }
  }
  if (!any) return;
  // Grace period: poll for clean exits before escalating to SIGKILL.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  for (;;) {
    bool alive = false;
    for (Child& child : children_) {
      if (child.pid <= 0) continue;
      if (::waitpid(child.pid, nullptr, WNOHANG) == child.pid) {
        child.pid = -1;
      } else {
        alive = true;
      }
    }
    if (!alive) return;
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  for (Child& child : children_) {
    if (child.pid > 0) {
      ::kill(child.pid, SIGKILL);
      ::waitpid(child.pid, nullptr, 0);
      child.pid = -1;
    }
  }
}

int WorkerSupervisor::given_up() const {
  int count = 0;
  for (const Child& child : children_) {
    if (child.gave_up) ++count;
  }
  return count;
}

}  // namespace mivid
