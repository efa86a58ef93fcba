#include "session_run.h"

#include <fstream>
#include <latch>
#include <thread>

#include "common/string_util.h"
#include "obs/json.h"

namespace perfbench {

using mivid::Result;
using mivid::Status;
using mivid::StrFormat;

namespace {

void AppendTimings(SessionTimings* into, const SessionTimings& from) {
  into->open_ms.Append(from.open_ms);
  into->rank_ms.Append(from.rank_ms);
  into->feedback_ms.Append(from.feedback_ms);
  into->close_ms.Append(from.close_ms);
}

std::string CameraKey(const std::vector<std::string>& cameras) {
  std::string key;
  for (const std::string& c : cameras) key += (key.empty() ? "" : ",") + c;
  return key;
}

}  // namespace

Status WarmCameras(const std::string& endpoint,
                   const std::vector<std::string>& cameras, Report* report) {
  MIVID_ASSIGN_OR_RETURN(Conn conn, Conn::Connect(endpoint, report));
  std::string response;
  for (const std::string& camera : cameras) {
    const std::string id = "warm-" + camera;
    if (!conn.Call("open",
                   "{\"cmd\":\"open\",\"session\":\"" + id +
                       "\",\"camera\":\"" + camera + "\"}",
                   &response) ||
        !conn.Call("close",
                   "{\"cmd\":\"close\",\"session\":\"" + id +
                       "\",\"discard\":true}",
                   &response)) {
      return Status::Internal("warm-up of " + camera + " failed: " + response);
    }
  }
  return Status::OK();
}

Status SessionLoop::Run(const std::string& endpoint, int rounds) {
  const int clients = args_.threads;
  std::vector<Conn> conns;
  for (int c = 0; c < clients; ++c) {
    MIVID_ASSIGN_OR_RETURN(Conn conn, Conn::Connect(endpoint, report_));
    conn.set_record(args_.trace);
    conns.push_back(std::move(conn));
  }
  std::latch ready(clients + 1);
  Clock::time_point end;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Conn& conn = conns[static_cast<size_t>(c)];
      ready.arrive_and_wait();
      SessionTimings mine;
      std::map<size_t, SessionTimings> widths;
      int64_t done = 0;
      for (int64_t k = 0;; ++k) {
        // Two sessions at least, so fleet clients run both kinds.
        if (k >= 2 && (args_.smoke() || Clock::now() >= end)) break;
        const std::vector<std::string> cameras = plan(c, k);
        SessionTimings st;
        SessionTrace trace;
        const std::string id =
            StrFormat("c%d-%lld", c, static_cast<long long>(k));
        const bool ok = RunSession(conn, *gt_, id, cameras, rounds, &st,
                                   &trace);
        AppendTimings(&mine, st);
        AppendTimings(&widths[cameras.size()], st);
        // A failure is already counted; its connection may be desynced.
        if (!ok) break;
        ++done;
        const std::string key = CameraKey(cameras);
        std::lock_guard<std::mutex> lock(mu_);
        if (args_.trace) session_cameras.emplace(id, cameras);
        auto [it, first] = firsts.emplace(key, trace);
        if (first) {
          first_cameras[key] = cameras;
        } else {
          report_->Check(it->second.final_ranking == trace.final_ranking,
                         "final ranking of " + key +
                             " differs between identical sessions");
        }
      }
      std::lock_guard<std::mutex> lock(mu_);
      AppendTimings(&timings, mine);
      for (const auto& [w, t] : widths) AppendTimings(&by_width[w], t);
      sessions += done;
      rejected += conn.rejected();
      requests.insert(requests.end(), conn.records().begin(),
                      conn.records().end());
      recorded.insert(recorded.end(), conn.lines().begin(),
                      conn.lines().end());
    });
  }
  const Clock::time_point start = Clock::now();
  end = start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args_.seconds));
  ready.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  window_s = SecondsSince(start);
  return Status::OK();
}

void SessionLoop::VerifyAgainstReferences() {
  for (const auto& [key, trace] : firsts) {
    const std::string reference =
        ReferenceRanking(*gt_, first_cameras.at(key), trace.rounds);
    report_->Check(reference == trace.final_ranking,
                   "served final top-20 of " + key +
                       " differs from the in-process reference: " +
                       trace.final_ranking + " vs " + reference);
  }
}

double SessionLoop::MeanFinalAccuracy() const {
  double sum = 0.0;
  for (const auto& [key, trace] : firsts) sum += FinalAccuracy(trace);
  return firsts.empty() ? 0.0 : sum / static_cast<double>(firsts.size());
}

double AccessEntry::Field(const std::string& name) const {
  if (name == "total_ms") return total_ms;
  if (name == "queue_ms") return queue_ms;
  if (name == "corpus_ms") return corpus_ms;
  if (name == "rank_ms") return rank_ms;
  if (name == "merge_ms") return merge_ms;
  if (name == "serialize_ms") return serialize_ms;
  if (name == "bytes_out") return bytes_out;
  return 0.0;
}

std::vector<AccessEntry> ReadAccessLog(const std::string& path) {
  std::vector<AccessEntry> entries;
  for (const std::string& file : {path + ".1", path}) {
    std::ifstream in(file);
    std::string line;
    while (std::getline(in, line)) {
      Result<mivid::JsonValue> doc = mivid::ParseJson(line);
      if (!doc.ok()) continue;
      const mivid::JsonValue& v = doc.value();
      auto str = [&](const char* key) {
        const mivid::JsonValue* f = v.Find(key);
        return f != nullptr && f->is_string() ? f->string : std::string();
      };
      auto num = [&](const char* key) {
        const mivid::JsonValue* f = v.Find(key);
        return f != nullptr && f->is_number() ? f->number : 0.0;
      };
      AccessEntry e;
      e.node = str("node");
      e.cmd = str("cmd");
      e.session = str("session");
      e.total_ms = num("total_ms");
      e.queue_ms = num("queue_ms");
      e.corpus_ms = num("corpus_ms");
      e.rank_ms = num("rank_ms");
      e.merge_ms = num("merge_ms");
      e.serialize_ms = num("serialize_ms");
      e.bytes_out = num("bytes_out");
      entries.push_back(std::move(e));
    }
  }
  return entries;
}

std::map<RequestKey, AccessEntry> IndexAccessLog(
    const std::vector<AccessEntry>& entries) {
  std::map<std::pair<std::string, std::string>, int> seen;
  std::map<RequestKey, AccessEntry> index;
  for (const AccessEntry& e : entries) {
    const int n = seen[{e.session, e.cmd}]++;
    index.emplace(RequestKey{e.session, e.cmd, n}, e);
  }
  return index;
}

std::vector<std::pair<RequestKey, double>> KeyRequests(
    const std::vector<RequestRecord>& requests) {
  std::map<std::pair<std::string, std::string>, int> seen;
  std::vector<std::pair<RequestKey, double>> keyed;
  for (const RequestRecord& r : requests) {
    const int n = seen[{r.session, r.command}]++;
    keyed.emplace_back(RequestKey{r.session, r.command, n}, r.ms);
  }
  return keyed;
}

AccessJoin JoinAccessLog(const std::string& path,
                         const std::vector<RequestRecord>& requests) {
  AccessJoin join;
  join.all = ReadAccessLog(path);
  const std::map<RequestKey, AccessEntry> index = IndexAccessLog(join.all);
  for (const auto& [key, ms] : KeyRequests(requests)) {
    auto it = index.find(key);
    if (it == index.end()) continue;
    join.pairs.emplace_back(it->second, ms);
    ++join.joined;
  }
  return join;
}

Samples AccessJoin::Phase(const std::string& cmd,
                          const std::string& field) const {
  Samples s;
  for (const auto& [entry, ms] : pairs) {
    if (entry.cmd == cmd) s.Add(entry.Field(field));
  }
  return s;
}

Samples AccessJoin::Transport(const std::string& cmd) const {
  Samples s;
  for (const auto& [entry, ms] : pairs) {
    if (entry.cmd == cmd) s.Add(ms - entry.total_ms);
  }
  return s;
}

Samples AccessJoin::ColdCorpusMs() const {
  Samples s;
  for (const AccessEntry& e : all) {
    if (e.cmd == "open" && e.corpus_ms > 0) s.Add(e.corpus_ms);
  }
  return s;
}

}  // namespace perfbench
