// Inputs and conversations shared by the daemon workloads: the
// ground-truth-track camera database with its oracle, one analyst's
// session over the wire, and the in-process references the served
// rankings are checked against.

#ifndef MIVID_PERFBENCH_FIXTURES_H_
#define MIVID_PERFBENCH_FIXTURES_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/merger.h"
#include "db/query_engine.h"
#include "harness.h"
#include "retrieval/heuristic.h"
#include "serve/client.h"

namespace perfbench {

/// One simulated camera: a single ground-truth-track clip.
struct CameraSpec {
  std::string id;
  bool tunnel = true;
  uint64_t scenario_seed = 0;
};

/// `count` cameras alternating tunnel and intersection clips with fixed
/// scenario seeds. The benchmark seed drives the request stream instead
/// (SeededCameraSets): when it drove the clips, sessions/s differed up
/// to 2.3x between seeds, so seeds could not be compared.
std::vector<CameraSpec> MixedCameras(int count);

/// Every set of `width` distinct cameras, in an order shuffled by `seed`.
std::vector<std::vector<std::string>> SeededCameraSets(
    uint64_t seed, const std::vector<std::string>& cameras, size_t width);

/// Simulates the cameras into a new database at `path` (ground-truth
/// tracks, no rendering) and extracts each camera's corpus in process:
/// the oracle labels and the datasets the references rank.
struct GtDatabase {
  std::map<std::string, mivid::CameraCorpus> corpora;
};
mivid::Result<GtDatabase> BuildGtDatabase(const std::string& path,
                                          const std::vector<CameraSpec>& cams);

/// The same corpora and oracle extracted in process, with no database.
GtDatabase BuildGtCorpora(const std::vector<CameraSpec>& cams);

/// Oracle label of `bag` on `camera` (unknown bags are irrelevant).
mivid::BagLabel OracleLabel(const GtDatabase& db, const std::string& camera,
                            int bag);

/// One labeled result: the analyst's verdict on a ranked bag.
struct Label {
  std::string camera;
  int bag = 0;
  mivid::BagLabel label = mivid::BagLabel::kIrrelevant;
};

/// One request as the client saw it (traced runs join these to the
/// daemons' access logs by session, command and ordinal).
struct RequestRecord {
  std::string session;
  std::string command;
  double ms = 0.0;
};

/// A client connection that times and counts every call.
class Conn {
 public:
  Conn(mivid::ServeClient client, Report* report)
      : client_(std::move(client)), report_(report) {}

  static mivid::Result<Conn> Connect(const std::string& endpoint,
                                     Report* report);

  /// Sends `line`; true when the reply is {"ok":true,...}. Transport
  /// errors and error replies count as failed operations of `command`;
  /// RESOURCE_EXHAUSTED replies are also counted as rejections.
  bool Call(const std::string& command, const std::string& line,
            std::string* response, Samples* latency_ms = nullptr);

  int64_t rejected() const { return rejected_; }

  /// Recording (traced runs): every request's session, command and
  /// latency, and the first kMaxLines request lines (parse timing).
  static constexpr size_t kMaxLines = 4000;
  void set_record(bool on) { record_ = on; }
  void set_session(const std::string& id) { session_ = id; }
  std::vector<RequestRecord>& records() { return records_; }
  std::vector<std::string>& lines() { return lines_; }

 private:
  mivid::ServeClient client_;
  Report* report_;
  int64_t rejected_ = 0;
  bool record_ = false;
  std::string session_;
  std::vector<RequestRecord> records_;
  std::vector<std::string> lines_;
};

/// Timings a conversation feeds.
struct SessionTimings {
  Samples open_ms, rank_ms, feedback_ms, close_ms;
};

/// What one analyst session saw: every round's labels and the final
/// ranking exactly as served.
struct SessionTrace {
  std::vector<std::vector<Label>> rounds;
  std::string final_ranking;    ///< the "ranking" array's bytes
  std::vector<Label> final_top; ///< final ranking, oracle-labeled
};

/// open -> (rank -> feedback) x rounds -> rank -> close, labels from
/// the oracle for every shown result. One camera opens a plain session;
/// several open a multi-camera session (coordinator scatter-gather).
bool RunSession(Conn& conn, const GtDatabase& db, const std::string& id,
                const std::vector<std::string>& cameras, int rounds,
                SessionTimings* timings, SessionTrace* trace);

/// The "ranking" array bytes a daemon serves for a single-camera `top`.
std::string RankingJson(const std::vector<mivid::ScoredBag>& top);

/// The same conversation replayed in process: one RetrievalSession per
/// camera given the same labels, merged like the coordinator when there
/// are several. Returns the "ranking" array bytes the daemon must serve.
std::string ReferenceRanking(const GtDatabase& db,
                             const std::vector<std::string>& cameras,
                             const std::vector<std::vector<Label>>& rounds);

/// Fraction of the final top-20 the oracle calls relevant.
double FinalAccuracy(const SessionTrace& trace);

/// Bytes of the "ranking" array in a rank response ("" when absent).
std::string RankingBytes(const std::string& response);

/// JSON label array for a feedback request.
std::string LabelsJson(const std::vector<Label>& labels, bool with_camera);

/// Session options every served session uses (the daemon defaults).
mivid::SessionOptions ServedSessionOptions();

}  // namespace perfbench

#endif  // MIVID_PERFBENCH_FIXTURES_H_
