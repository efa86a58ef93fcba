#include "db/video_db.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/fault.h"
#include "common/file_util.h"
#include "common/string_util.h"
#include "svm/model_io.h"

namespace mivid {

namespace {
constexpr char kCatalogFile[] = "CATALOG";
}  // namespace

Result<std::unique_ptr<VideoDb>> VideoDb::Open(const std::string& path,
                                               const VideoDbOptions& options) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const bool exists = fs::exists(path, ec);
  const std::string catalog_path = path + "/" + kCatalogFile;
  const bool has_catalog = fs::exists(catalog_path, ec);

  if (has_catalog && options.error_if_exists) {
    return Status::AlreadyExists("database already exists at " + path);
  }
  if (!has_catalog && !options.create_if_missing) {
    return Status::NotFound("no database at " + path +
                            " (set create_if_missing to create one)");
  }

  std::unique_ptr<VideoDb> db(new VideoDb(path));
  if (!has_catalog) {
    if (!exists && !fs::create_directories(path, ec) && ec) {
      return Status::IOError("cannot create directory " + path + ": " +
                             ec.message());
    }
    MIVID_RETURN_IF_ERROR(db->PersistCatalog());
  } else {
    MIVID_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(catalog_path));
    MIVID_ASSIGN_OR_RETURN(db->catalog_, Catalog::Deserialize(bytes));
  }
  return db;
}

Status VideoDb::PersistCatalog() const {
  return WriteFileAtomic(path_ + "/" + kCatalogFile, catalog_.Serialize());
}

std::string VideoDb::TracksPath(int clip_id) const {
  return StrFormat("%s/clip_%d.trk", path_.c_str(), clip_id);
}

std::string VideoDb::IncidentsPath(int clip_id) const {
  return StrFormat("%s/clip_%d.inc", path_.c_str(), clip_id);
}

std::string VideoDb::VideoPath(int clip_id) const {
  return StrFormat("%s/clip_%d.vid", path_.c_str(), clip_id);
}

std::string VideoDb::ModelPath(const std::string& name) const {
  return path_ + "/model_" + name + ".svm";
}

std::vector<ClipInfo> VideoDb::ListClips() const {
  std::lock_guard<std::mutex> lock(mu_);
  return catalog_.List();
}

std::vector<std::string> VideoDb::Cameras() const {
  std::lock_guard<std::mutex> lock(mu_);
  return catalog_.Cameras();
}

std::vector<int> VideoDb::ClipsForCamera(const std::string& camera_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return catalog_.ClipsForCamera(camera_id);
}

size_t VideoDb::clip_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return catalog_.size();
}

Status VideoDb::SaveClipVideo(int clip_id, const VideoClip& video) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    MIVID_RETURN_IF_ERROR(catalog_.Get(clip_id).status());
  }
  return WriteFileAtomic(VideoPath(clip_id), SerializeFrames(video));
}

Result<VideoClip> VideoDb::LoadClipVideo(int clip_id) const {
  Result<std::string> bytes = ReadFileToString(VideoPath(clip_id));
  if (!bytes.ok()) {
    return Status::NotFound(
        StrFormat("no stored video for clip %d", clip_id));
  }
  return DeserializeFrames(bytes.value());
}

bool VideoDb::HasClipVideo(int clip_id) const {
  std::error_code ec;
  return std::filesystem::exists(VideoPath(clip_id), ec);
}

Result<int> VideoDb::IngestClip(const ClipInfo& info,
                                const std::vector<Track>& tracks,
                                const std::vector<IncidentRecord>& incidents) {
  std::lock_guard<std::mutex> lock(mu_);
  const int id = catalog_.Add(info);
  Status s = WriteFileAtomic(TracksPath(id), SerializeTracks(tracks));
  if (s.ok()) {
    s = WriteFileAtomic(IncidentsPath(id), SerializeIncidents(incidents));
  }
  if (s.ok()) s = PersistCatalog();
  if (!s.ok()) {
    // Roll back the catalog entry so the db stays consistent.
    (void)catalog_.Remove(id);
    std::remove(TracksPath(id).c_str());
    std::remove(IncidentsPath(id).c_str());
    return s;
  }
  return id;
}

Result<ClipRecord> VideoDb::LoadClip(int clip_id) const {
  ClipRecord record;
  {
    std::lock_guard<std::mutex> lock(mu_);
    MIVID_ASSIGN_OR_RETURN(record.info, catalog_.Get(clip_id));
  }
  {
    MIVID_ASSIGN_OR_RETURN(std::string bytes,
                           ReadFileToString(TracksPath(clip_id)));
    MIVID_ASSIGN_OR_RETURN(record.tracks, DeserializeTracks(bytes));
  }
  {
    MIVID_ASSIGN_OR_RETURN(std::string bytes,
                           ReadFileToString(IncidentsPath(clip_id)));
    MIVID_ASSIGN_OR_RETURN(record.incidents, DeserializeIncidents(bytes));
  }
  return record;
}

Status VideoDb::DeleteClip(int clip_id) {
  std::lock_guard<std::mutex> lock(mu_);
  MIVID_RETURN_IF_ERROR(catalog_.Remove(clip_id));
  std::remove(TracksPath(clip_id).c_str());
  std::remove(IncidentsPath(clip_id).c_str());
  std::remove(VideoPath(clip_id).c_str());
  return PersistCatalog();
}

Status VideoDb::SaveModel(const std::string& name,
                          const OneClassSvmModel& model) {
  return WriteFileAtomic(ModelPath(name), SerializeOneClassSvm(model));
}

Result<OneClassSvmModel> VideoDb::LoadModel(const std::string& name) const {
  Result<std::string> bytes = ReadFileToString(ModelPath(name));
  if (!bytes.ok()) {
    return Status::NotFound("no model named '" + name + "'");
  }
  return DeserializeOneClassSvm(bytes.value());
}

std::string VideoDb::SessionPath(const std::string& name) const {
  return path_ + "/session_" + name + ".rfs";
}

Status VideoDb::SaveSession(const std::string& name,
                            const SessionState& state) {
  std::string bytes = SerializeSessionState(state);
  // journal.write.torn simulates a crash mid-journal-write: half the
  // bytes reach a temp file and the process dies before the atomic
  // rename. The previous journal generation must survive intact — a
  // failover replays it and the coordinator retries the lost round.
  if (MIVID_FAULT("journal.write.torn")) {
    const std::string torn =
        SessionPath(name) + ".tmp." + std::to_string(::getpid());
    if (std::FILE* f = std::fopen(torn.c_str(), "wb")) {
      std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
      std::fclose(f);
    }
    _exit(134);
  }
  return WriteFileAtomic(SessionPath(name), bytes);
}

Result<SessionState> VideoDb::LoadSession(const std::string& name) const {
  Result<std::string> bytes = ReadFileToString(SessionPath(name));
  if (!bytes.ok()) {
    return Status::NotFound("no session named '" + name + "'");
  }
  return DeserializeSessionState(bytes.value());
}

std::vector<std::string> VideoDb::ListSessions() const {
  namespace fs = std::filesystem;
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(path_, ec)) {
    const std::string file = entry.path().filename().string();
    if (StartsWith(file, "session_") && EndsWith(file, ".rfs")) {
      names.push_back(file.substr(8, file.size() - 8 - 4));
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> VideoDb::ListModels() const {
  namespace fs = std::filesystem;
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(path_, ec)) {
    const std::string file = entry.path().filename().string();
    if (StartsWith(file, "model_") && EndsWith(file, ".svm")) {
      names.push_back(file.substr(6, file.size() - 6 - 4));
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace mivid
