// The closed analyst loop shared by serve_sessions and fleet_multicam,
// and the access-log reader both use for their traced runs.

#ifndef MIVID_PERFBENCH_SESSION_RUN_H_
#define MIVID_PERFBENCH_SESSION_RUN_H_

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "fixtures.h"

namespace perfbench {

/// Opens and closes a session on every camera so each corpus is loaded
/// before the window starts.
mivid::Status WarmCameras(const std::string& endpoint,
                          const std::vector<std::string>& cameras,
                          Report* report);

/// `Args::threads` closed-loop clients, one connection each, running
/// sessions until the window ends (two sessions each in smoke mode).
/// Every session on the same cameras follows the same trajectory, so
/// the first one per camera set is kept and every later final ranking
/// must equal it byte for byte.
class SessionLoop {
 public:
  SessionLoop(const Args& args, Report* report, const GtDatabase* gt)
      : args_(args), report_(report), gt_(gt) {}

  /// Cameras of client `client`'s `k`-th session.
  std::function<std::vector<std::string>(int client, int64_t k)> plan;

  mivid::Status Run(const std::string& endpoint, int rounds);

  /// The first conversation per camera set, replayed in process, must
  /// give the served final ranking byte for byte.
  void VerifyAgainstReferences();

  double MeanFinalAccuracy() const;
  double SessionsPerSecond() const {
    return window_s > 0 ? sessions / window_s : 0.0;
  }

  SessionTimings timings;                      ///< every session
  std::map<size_t, SessionTimings> by_width;   ///< keyed by camera count
  std::map<std::string, SessionTrace> firsts;  ///< camera set -> first
  std::map<std::string, std::vector<std::string>> first_cameras;
  std::vector<RequestRecord> requests;  ///< traced runs only
  std::vector<std::string> recorded;    ///< traced: sample request lines
  /// Traced: cameras of every completed session, by session id.
  std::map<std::string, std::vector<std::string>> session_cameras;
  int64_t rejected = 0;
  int64_t sessions = 0;
  double window_s = 0.0;

 private:
  const Args& args_;
  Report* report_;
  const GtDatabase* gt_;
  std::mutex mu_;
};

/// One access-log line.
struct AccessEntry {
  std::string node, cmd, session;
  double total_ms = 0, queue_ms = 0, corpus_ms = 0, rank_ms = 0,
         merge_ms = 0, serialize_ms = 0, bytes_out = 0;
  double Field(const std::string& name) const;
};

/// Reads an access log (and its rotated predecessor, if any).
std::vector<AccessEntry> ReadAccessLog(const std::string& path);

/// (session, command, n): the n-th request of that command in that
/// session. Requests of one session are sequential, so client records
/// and log lines pair up by this key.
using RequestKey = std::tuple<std::string, std::string, int>;
std::map<RequestKey, AccessEntry> IndexAccessLog(
    const std::vector<AccessEntry>& entries);
std::vector<std::pair<RequestKey, double>> KeyRequests(
    const std::vector<RequestRecord>& requests);

/// Client requests joined to a daemon's access log.
struct AccessJoin {
  std::vector<std::pair<AccessEntry, double>> pairs;  ///< entry, client ms
  std::vector<AccessEntry> all;
  size_t joined = 0;
  Samples Phase(const std::string& cmd, const std::string& field) const;
  /// Client latency minus the daemon's total_ms.
  Samples Transport(const std::string& cmd) const;
  /// corpus_ms of opens that loaded a corpus.
  Samples ColdCorpusMs() const;
};
AccessJoin JoinAccessLog(const std::string& path,
                         const std::vector<RequestRecord>& requests);

}  // namespace perfbench

#endif  // MIVID_PERFBENCH_SESSION_RUN_H_
