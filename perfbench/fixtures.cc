#include "fixtures.h"

#include <algorithm>
#include <random>

#include "common/string_util.h"
#include "db/video_db.h"
#include "obs/json.h"
#include "retrieval/session.h"
#include "serve/protocol.h"
#include "trafficsim/scenarios.h"
#include "trafficsim/world.h"

namespace perfbench {

using mivid::BagLabel;
using mivid::Result;
using mivid::Status;
using mivid::StrFormat;

std::vector<CameraSpec> MixedCameras(int count) {
  std::vector<CameraSpec> cams;
  for (int i = 0; i < count; ++i) {
    CameraSpec cam;
    cam.id = "cam" + std::to_string(i);
    cam.tunnel = i % 2 == 0;
    cam.scenario_seed = 101 + static_cast<uint64_t>(i);
    cams.push_back(cam);
  }
  return cams;
}

std::vector<std::vector<std::string>> SeededCameraSets(
    uint64_t seed, const std::vector<std::string>& cameras, size_t width) {
  std::vector<std::vector<std::string>> sets;
  std::vector<bool> pick(cameras.size(), false);
  std::fill(pick.begin(), pick.begin() + static_cast<long>(width), true);
  do {
    std::vector<std::string> set;
    for (size_t i = 0; i < cameras.size(); ++i) {
      if (pick[i]) set.push_back(cameras[i]);
    }
    sets.push_back(std::move(set));
  } while (std::prev_permutation(pick.begin(), pick.end()));
  std::mt19937_64 rng(seed);
  std::shuffle(sets.begin(), sets.end(), rng);
  return sets;
}

namespace {

/// One camera's clip, simulated with ground-truth tracks (no rendering).
mivid::ClipRecord SimulateCamera(const CameraSpec& cam) {
  mivid::ScenarioSpec scenario;
  if (cam.tunnel) {
    mivid::TunnelScenarioOptions o;
    o.seed = cam.scenario_seed;
    scenario = mivid::MakeTunnelScenario(o);
  } else {
    mivid::IntersectionScenarioOptions o;
    o.seed = cam.scenario_seed;
    scenario = mivid::MakeIntersectionScenario(o);
  }
  mivid::TrafficWorld world(scenario);
  mivid::GroundTruth gt = world.Run();
  mivid::ClipRecord clip;
  clip.info.camera_id = cam.id;
  clip.info.location = scenario.name;
  clip.info.total_frames = scenario.total_frames;
  clip.info.scenario = scenario.name;
  clip.tracks = std::move(gt.tracks);
  clip.incidents = std::move(gt.incidents);
  return clip;
}

}  // namespace

Result<GtDatabase> BuildGtDatabase(const std::string& path,
                                   const std::vector<CameraSpec>& cams) {
  mivid::VideoDbOptions options;
  options.create_if_missing = true;
  MIVID_ASSIGN_OR_RETURN(std::unique_ptr<mivid::VideoDb> db,
                         mivid::VideoDb::Open(path, options));
  for (const CameraSpec& cam : cams) {
    const mivid::ClipRecord clip = SimulateCamera(cam);
    MIVID_ASSIGN_OR_RETURN(int id,
                           db->IngestClip(clip.info, clip.tracks,
                                          clip.incidents));
    (void)id;
  }
  // The daemons extract with default QueryOptions; so does the oracle.
  GtDatabase out;
  mivid::QueryEngine engine(db.get());
  for (const CameraSpec& cam : cams) {
    MIVID_ASSIGN_OR_RETURN(mivid::CameraCorpus corpus,
                           engine.BuildCorpus(cam.id, mivid::QueryOptions{}));
    out.corpora.emplace(cam.id, std::move(corpus));
  }
  return out;
}

GtDatabase BuildGtCorpora(const std::vector<CameraSpec>& cams) {
  GtDatabase out;
  for (const CameraSpec& cam : cams) {
    const mivid::QueryOptions options;
    mivid::CameraCorpus corpus;
    corpus.camera_id = cam.id;
    int next_bag_id = 0;
    mivid::AppendClipBags(mivid::ExtractClip(SimulateCamera(cam), options),
                          options, &corpus, &next_bag_id);
    out.corpora.emplace(cam.id, std::move(corpus));
  }
  return out;
}

BagLabel OracleLabel(const GtDatabase& db, const std::string& camera,
                     int bag) {
  auto corpus = db.corpora.find(camera);
  if (corpus == db.corpora.end()) return BagLabel::kIrrelevant;
  auto it = corpus->second.truth.find(bag);
  return it != corpus->second.truth.end() ? it->second
                                          : BagLabel::kIrrelevant;
}

Result<Conn> Conn::Connect(const std::string& endpoint, Report* report) {
  MIVID_ASSIGN_OR_RETURN(mivid::ServeClient client,
                         mivid::ServeClient::Connect(endpoint));
  return Conn(std::move(client), report);
}

bool Conn::Call(const std::string& command, const std::string& line,
                std::string* response, Samples* latency_ms) {
  if (record_ && lines_.size() < kMaxLines) lines_.push_back(line);
  const Clock::time_point t0 = Clock::now();
  Result<std::string> reply = client_.Call(line);
  const double ms = MsSince(t0);
  bool ok = reply.ok();
  if (ok) {
    *response = std::move(reply).value();
    ok = response->rfind("{\"ok\":true", 0) == 0;
    if (!ok && response->find("\"RESOURCE_EXHAUSTED\"") != std::string::npos) {
      ++rejected_;
    }
  } else {
    *response = reply.status().ToString();
  }
  report_->ops.Record(command, ok);
  if (!ok) report_->NoteFailure(command, *response);
  if (ok && latency_ms != nullptr) latency_ms->Add(ms);
  if (record_) records_.push_back(RequestRecord{session_, command, ms});
  return ok;
}

std::string RankingBytes(const std::string& response) {
  const size_t at = response.find("\"ranking\":[");
  if (at == std::string::npos) return "";
  const size_t begin = at + 10;
  const size_t end = response.find(']', begin);
  if (end == std::string::npos) return "";
  return response.substr(begin, end + 1 - begin);
}

std::string LabelsJson(const std::vector<Label>& labels, bool with_camera) {
  std::string out = "[";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    if (with_camera) {
      out += StrFormat("{\"camera\":\"%s\",\"bag\":%d,\"label\":\"%s\"}",
                       labels[i].camera.c_str(), labels[i].bag,
                       mivid::BagLabelWireName(labels[i].label));
    } else {
      out += StrFormat("{\"bag\":%d,\"label\":\"%s\"}", labels[i].bag,
                       mivid::BagLabelWireName(labels[i].label));
    }
  }
  return out + "]";
}

namespace {

/// Parses a rank response into oracle-labeled results.
bool ParseRanking(const GtDatabase& db, const std::string& response,
                  const std::string& single_camera, std::vector<Label>* out) {
  Result<mivid::JsonValue> doc = mivid::ParseJson(response);
  if (!doc.ok()) return false;
  const mivid::JsonValue* ranking = doc.value().Find("ranking");
  if (ranking == nullptr || !ranking->is_array()) return false;
  out->clear();
  for (const mivid::JsonValue& item : ranking->array) {
    const mivid::JsonValue* bag = item.Find("bag");
    const mivid::JsonValue* camera = item.Find("camera");
    if (bag == nullptr || !bag->is_number()) return false;
    Label label;
    label.camera = camera != nullptr ? camera->string : single_camera;
    label.bag = static_cast<int>(bag->number);
    label.label = OracleLabel(db, label.camera, label.bag);
    out->push_back(std::move(label));
  }
  return true;
}

std::string QuoteList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += "\"" + mivid::JsonEscape(items[i]) + "\"";
  }
  return out + "]";
}

}  // namespace

bool RunSession(Conn& conn, const GtDatabase& db, const std::string& id,
                const std::vector<std::string>& cameras, int rounds,
                SessionTimings* timings, SessionTrace* trace) {
  const bool multi = cameras.size() > 1;
  conn.set_session(id);
  std::string response;
  const std::string open =
      multi ? "{\"cmd\":\"open\",\"session\":\"" + id +
                  "\",\"cameras\":" + QuoteList(cameras) + "}"
            : "{\"cmd\":\"open\",\"session\":\"" + id +
                  "\",\"camera\":\"" + cameras[0] + "\"}";
  if (!conn.Call("open", open, &response, &timings->open_ms)) return false;

  const std::string rank = "{\"cmd\":\"rank\",\"session\":\"" + id +
                           "\",\"top\":20}";
  bool ok = true;
  std::vector<Label> shown;
  for (int round = 0; ok; ++round) {
    ok = conn.Call("rank", rank, &response, &timings->rank_ms) &&
         ParseRanking(db, response, cameras[0], &shown);
    if (!ok || round == rounds) break;
    trace->rounds.push_back(shown);
    ok = conn.Call("feedback",
                   "{\"cmd\":\"feedback\",\"session\":\"" + id +
                       "\",\"labels\":" + LabelsJson(shown, multi) + "}",
                   &response, &timings->feedback_ms);
  }
  if (ok) {
    trace->final_ranking = RankingBytes(response);
    trace->final_top = shown;
  }
  const bool closed = conn.Call(
      "close",
      "{\"cmd\":\"close\",\"session\":\"" + id + "\",\"discard\":true}",
      &response, &timings->close_ms);
  return ok && closed;
}

mivid::SessionOptions ServedSessionOptions() {
  mivid::SessionOptions options = mivid::SessionOptionsFor(mivid::QueryOptions{});
  options.engine = "milrf";
  options.top_n = 20;
  return options;
}

std::string RankingJson(const std::vector<mivid::ScoredBag>& top) {
  std::string out = "[";
  for (size_t i = 0; i < top.size(); ++i) {
    if (i > 0) out += ',';
    out += StrFormat("{\"bag\":%d,\"score\":%.17g}", top[i].bag_id,
                     top[i].score);
  }
  return out + "]";
}

std::string ReferenceRanking(const GtDatabase& db,
                             const std::vector<std::string>& cameras,
                             const std::vector<std::vector<Label>>& rounds) {
  std::vector<mivid::RetrievalSession> sessions;
  for (const std::string& camera : cameras) {
    Result<mivid::RetrievalSession> s = mivid::RetrievalSession::Create(
        db.corpora.at(camera).dataset, ServedSessionOptions());
    if (!s.ok()) return "reference session failed: " + s.status().ToString();
    sessions.push_back(std::move(s).value());
  }
  for (const std::vector<Label>& round : rounds) {
    for (size_t c = 0; c < cameras.size(); ++c) {
      std::vector<std::pair<int, BagLabel>> labels;
      for (const Label& l : round) {
        if (l.camera == cameras[c]) labels.emplace_back(l.bag, l.label);
      }
      // The coordinator only forwards feedback to cameras with labels.
      if (labels.empty()) continue;
      (void)sessions[c].SubmitFeedback(labels);
    }
  }
  if (cameras.size() == 1) return RankingJson(sessions[0].CurrentTopK(20));
  std::string out = "[";
  std::vector<std::vector<mivid::ClusterScoredBag>> parts;
  for (size_t c = 0; c < cameras.size(); ++c) {
    std::vector<mivid::ClusterScoredBag> part;
    for (const mivid::ScoredBag& b : sessions[c].CurrentTopK(20)) {
      part.push_back(mivid::ClusterScoredBag{cameras[c], b.bag_id, b.score});
    }
    parts.push_back(std::move(part));
  }
  const std::vector<mivid::ClusterScoredBag> merged =
      mivid::MergeTopK(std::move(parts), 20);
  for (size_t i = 0; i < merged.size(); ++i) {
    if (i > 0) out += ',';
    out += StrFormat("{\"camera\":\"%s\",\"bag\":%d,\"score\":%.17g}",
                     mivid::JsonEscape(merged[i].camera).c_str(),
                     merged[i].bag_id, merged[i].score);
  }
  return out + "]";
}

double FinalAccuracy(const SessionTrace& trace) {
  int relevant = 0;
  for (size_t i = 0; i < trace.final_top.size() && i < 20; ++i) {
    relevant += trace.final_top[i].label == BagLabel::kRelevant ? 1 : 0;
  }
  return relevant / 20.0;
}

}  // namespace perfbench
